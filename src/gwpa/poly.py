"""Exact multivariate polynomials over the rationals.

A polynomial maps packed monomials to int numerators over one positive
common denominator, in lowest terms.  A packed monomial is one int holding
the total degree in its top field and e_0 .. e_{n-1} below, ``FIELD_BITS``
each, so int order is graded lexicographic order (first variable largest)
and a monomial product is one addition (Monagan and Pearce, CASC 2007).
Total degrees of ``DEGREE_LIMIT`` or more raise :class:`GwpaError`.  The
public interface speaks exponent tuples and coefficients that are ints when
integral and ``fractions.Fraction`` otherwise.  All operations are side-effect
free, and rendering is canonical: graded-lex descending terms with reduced
coefficients, so equal polynomials render to identical strings.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence, Union

from .errors import AmbientMismatchError, GwpaError

Coeff = Union[int, Fraction]

#: Degree of the zero polynomial.  Compares below every integer.
NEG_INF = float("-inf")

#: Width of each field of a packed monomial.
FIELD_BITS = 32
#: Total degrees of monomials must stay below this bound.
DEGREE_LIMIT = 1 << FIELD_BITS
_MASK = DEGREE_LIMIT - 1


def normalize_coeff(value) -> Coeff:
    """Return ``value`` as an int when integral, else a reduced Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError("coefficient must be int or Fraction, got %r" % (value,))


def _ratio(num: int, den: int) -> Coeff:
    return num if den == 1 else normalize_coeff(Fraction(num, den))


def check_degree(degree: int) -> None:
    """Raise :class:`GwpaError` unless this total degree fits its field."""
    if degree >= DEGREE_LIMIT:
        raise GwpaError(
            "monomial total degree %d exceeds the limit of %d"
            % (degree, DEGREE_LIMIT - 1)
        )


class PolyRing:
    """A rational polynomial ring with a fixed ordered tuple of variables.

    Rings compare by value: two rings with the same variable tuple are
    interchangeable.  The variable list may be empty, which models the plain
    rational constants.  ``pack`` and ``unpack`` convert between exponent
    tuples and packed monomials; ``key >> ring.top`` is a key's total
    degree and ``ring.units[i]`` is the key of the i-th variable.
    """

    __slots__ = ("variables", "_index", "top", "units", "_shifts")

    def __init__(self, variables: Sequence[str] = ()):
        variables = tuple(variables)
        seen = set()
        for name in variables:
            if not name or not (name[0].isalpha() and name.replace("_", "a").isalnum()):
                raise GwpaError("invalid variable name %r" % (name,))
            if name in seen:
                raise GwpaError("duplicate variable name %r" % (name,))
            seen.add(name)
        self.variables = variables
        self._index = {name: i for i, name in enumerate(variables)}
        self.top = FIELD_BITS * len(variables)
        self._shifts = tuple(range(self.top - FIELD_BITS, -1, -FIELD_BITS))
        self.units = tuple((1 << self.top) | (1 << s) for s in self._shifts)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise GwpaError(
                "unknown variable %r in ring %r" % (name, list(self.variables))
            ) from None

    def pack(self, exps: Sequence[int]) -> int:
        """The packed key of an exponent tuple."""
        if len(exps) != len(self.variables) or min(exps, default=0) < 0:
            raise GwpaError("invalid exponent tuple %r" % (tuple(exps),))
        key = sum(exps)
        check_degree(key)
        for e in exps:
            key = (key << FIELD_BITS) | e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key."""
        return tuple([(key >> s) & _MASK for s in self._shifts])

    def zero(self) -> "Polynomial":
        return _make(self, {})

    def one(self) -> "Polynomial":
        return _make(self, {0: 1})

    def const(self, value) -> "Polynomial":
        return _from_values(self, {0: value})

    def var(self, name: str) -> "Polynomial":
        return _make(self, {self.units[self.index(name)]: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(name) for name in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Polynomial":
        return _from_values(self, {self.pack([int(e) for e in exps]): coeff})

    def extended(self, extra: Sequence[str]) -> "PolyRing":
        """Ring with ``extra`` variables appended after the current ones."""
        return PolyRing(self.variables + tuple(extra))

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return "PolyRing(%s)" % ", ".join(self.variables)


class Polynomial:
    """Immutable sparse polynomial over a :class:`PolyRing`.

    ``Polynomial(ring, {exponent tuple: coefficient})`` builds one.
    Arithmetic accepts ints and Fractions as scalars.  Operations between
    polynomials require equal rings and raise :class:`AmbientMismatchError`
    otherwise.
    """

    __slots__ = ("ring", "_terms", "_den", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Coeff]):
        built = _from_values(ring, {ring.pack(e): c for e, c in terms.items()})
        self.ring, self._terms, self._den, self._hash = ring, built._terms, built._den, None

    # -- introspection -------------------------------------------------

    def packed_items(self) -> list[tuple[int, Coeff]]:
        """Packed keys with their int or Fraction coefficients."""
        den = self._den
        if den == 1:
            return list(self._terms.items())
        return [(k, _ratio(c, den)) for k, c in self._terms.items()]

    def items(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Exponent tuples with their int or Fraction coefficients."""
        unpack = self.ring.unpack
        return [(unpack(k), c) for k, c in self.packed_items()]

    def terms(self) -> dict[tuple[int, ...], Coeff]:
        """A copy of the exponent-to-coefficient map."""
        return dict(self.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def constant_value(self) -> Coeff:
        """The coefficient of the constant monomial (the full value when
        ``is_constant``)."""
        return _ratio(self._terms.get(0, 0), self._den)

    @property
    def total_degree(self):
        if not self._terms:
            return NEG_INF
        return max(self._terms) >> self.ring.top

    def _weigher(self, weights: Sequence[int]):
        """The weighted degree of a packed key, as a function; with uniform
        weights it reads the total degree field."""
        if len(set(weights)) == 1:
            top, w = self.ring.top, weights[0]
            return lambda key: w * (key >> top)
        pairs = tuple(zip(weights, self.ring._shifts))
        return lambda key: sum(w * ((key >> s) & _MASK) for w, s in pairs)

    def weighted_degree(self, weights: Sequence[int]):
        """Largest weighted degree of a monomial, NEG_INF for zero."""
        if not self._terms:
            return NEG_INF
        weigh = self._weigher(weights)
        if len(set(weights)) == 1:  # the graded maximum has the top degree
            return weigh(max(self._terms))
        return max(map(weigh, self._terms))

    def weighted_component(self, weights: Sequence[int], degree) -> "Polynomial":
        """The weighted-homogeneous slice of the given degree."""
        weigh = self._weigher(weights)
        picked = {k: c for k, c in self._terms.items() if weigh(k) == degree}
        return _reduced(self.ring, picked, self._den)

    def variables_used(self) -> tuple[str, ...]:
        """Names of variables appearing with nonzero exponent."""
        used = 0
        for key in self._terms:
            used |= key
        return tuple(
            v for v, s in zip(self.ring.variables, self.ring._shifts) if (used >> s) & _MASK
        )

    def leading_term(self) -> tuple[tuple[int, ...], Coeff]:
        """Exponents and coefficient of the graded-lex largest monomial."""
        if not self._terms:
            raise GwpaError("zero polynomial has no leading term")
        key = max(self._terms)
        return self.ring.unpack(key), _ratio(self._terms[key], self._den)

    def coefficient(self, exps: tuple[int, ...]) -> Coeff:
        try:
            key = self.ring.pack(tuple(exps))
        except GwpaError:
            return 0
        return _ratio(self._terms.get(key, 0), self._den)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring is not other.ring and self.ring != other.ring:
            raise AmbientMismatchError(self.ring.variables, other.ring.variables)

    def _coerce(self, value):
        if isinstance(value, Polynomial):
            self._check_ring(value)
            return value
        if isinstance(value, (int, Fraction)):
            return self.ring.const(value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            out = dict(self._terms)
            get = out.get
            for key, c in other._terms.items():
                out[key] = get(key, 0) + c
        else:
            g = gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            d1 *= m1
            out = {key: c * m1 for key, c in self._terms.items()}
            get = out.get
            for key, c in other._terms.items():
                out[key] = get(key, 0) + c * m2
        return _reduced(self.ring, out, d1)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {k: -c for k, c in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                return self._scaled(normalize_coeff(other))
            return NotImplemented
        ring = self.ring
        if other.ring is not ring:
            self._check_ring(other)
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return ring.zero()
        top = ring.top
        check_degree((max(t1) >> top) + (max(t2) >> top))
        den = self._den * other._den
        if len(t1) > len(t2):  # the shorter factor drives the outer loop
            t1, t2 = t2, t1
        if len(t1) == 1:
            (k1, c1), = t1.items()
            if not k1 and c1 == 1 and (rest := other if t1 is self._terms else self)._den == den:
                return rest  # the factor t1 is the constant 1
            out = {k1 + k2: c1 * c2 for k2, c2 in t2.items()}
            if den == 1:
                return _make(ring, out)
        else:
            out = {}
            get = out.get
            pairs = t2.items()
            for k1, c1 in t1.items():
                for k2, c2 in pairs:
                    k = k1 + k2
                    out[k] = get(k, 0) + c1 * c2
        return _reduced(ring, out, den)

    def _scaled(self, value: Coeff) -> "Polynomial":
        if not value or not self._terms:
            return self.ring.zero()
        terms = {k: c * value.numerator for k, c in self._terms.items()}
        return _reduced(self.ring, terms, self._den * value.denominator)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise GwpaError("polynomial powers must be nonnegative integers")
        if self._terms:
            check_degree((max(self._terms) >> self.ring.top) * exponent)
        result = self.ring.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / Fraction(scalar))
        return NotImplemented

    # -- calculus and substitution --------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        i = self.ring.index(name)
        shift, unit = self.ring._shifts[i], self.ring.units[i]
        out = {}
        for key, c in self._terms.items():
            e = (key >> shift) & _MASK
            if e:
                out[key - unit] = c * e
        return _reduced(self.ring, out, self._den)

    def map_monomials(self, image_of) -> "Polynomial":
        """The linear extension of a map on monomials: the sum of c times
        ``image_of(key)`` over the terms c x^key, for a function from packed
        keys to polynomials over this ring."""
        if len(self._terms) == 1:
            (key, c), = self._terms.items()
            image = image_of(key)
            return image if c == 1 and self._den == 1 else image._scaled(_ratio(c, self._den))
        parts = [(c, 0, image_of(key)) for key, c in self._terms.items()]
        return _combination(self.ring, parts, self._den)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables; unmapped variables persist.

        All images must live in the same ring as this polynomial.
        """
        table: dict[int, Polynomial] = {}
        for name, image in images.items():
            i = self.ring.index(name)
            self._check_ring(image)
            table[i] = image
        gens = self.ring.gens()
        result = self.ring.zero()
        for exps, coeff in self.items():
            factor = self.ring.const(coeff)
            for i, e in enumerate(exps):
                if e:
                    factor = factor * table.get(i, gens[i]) ** e
            result = result + factor
        return result

    def embed(
        self, target: PolyRing, rename: Mapping[str, str] | None = None
    ) -> "Polynomial":
        """Reinterpret this polynomial inside a larger ring.

        Every variable used must map (after optional renaming) to a variable
        of the target ring.
        """
        rename = dict(rename or {})
        positions: dict[int, int] = {}
        for i, name in enumerate(self.ring.variables):
            mapped = rename.get(name, name)
            if mapped in target.variables:
                positions[i] = target.index(mapped)
        out: dict = {}
        for key, c in self._terms.items():
            new = 0
            for i, e in enumerate(self.ring.unpack(key)):
                if e and i not in positions:
                    raise GwpaError(
                        "variable %r has no image in the target ring"
                        % self.ring.variables[i]
                    )
                new += e * target.units[positions[i]] if e else 0
            out[new] = out.get(new, 0) + c
        return _reduced(target, out, self._den)

    # -- equality and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            (self.ring is other.ring or self.ring == other.ring)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self.items()))
            self._hash = hash((self.ring.variables, items))
        return self._hash

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms in graded-lex descending order."""
        unpack, den = self.ring.unpack, self._den
        return [
            (unpack(k), _ratio(c, den))
            for k, c in sorted(self._terms.items(), reverse=True)
        ]

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return "Polynomial(%s)" % self


def _make(ring: PolyRing, terms: dict, den: int = 1) -> Polynomial:
    """Trusted constructor: ``terms`` maps packed keys to nonzero int
    numerators over ``den`` > 0, with no factor common to all of them."""
    poly = object.__new__(Polynomial)
    poly.ring, poly._terms, poly._den, poly._hash = ring, terms, den, None
    return poly


def _reduced(ring: PolyRing, terms: dict, den: int) -> Polynomial:
    """Like :func:`_make`, but drops zero numerators and cancels the common
    factor first."""
    if 0 in terms.values():
        terms = {k: c for k, c in terms.items() if c}
    if den != 1:
        g = den  # one call per value: star-unpacking them all raised peak RSS
        for c in terms.values():
            if (g := gcd(g, c)) == 1:
                break
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    return _make(ring, terms, den)


def _combination(ring: PolyRing, parts, den: int = 1) -> Polynomial:
    """The sum of c x^shift p over the (int c, packed shift, polynomial p)
    in ``parts``, divided by ``den``: the accumulation behind every linear
    map that is given by its images of monomials."""
    scale = 1
    for _, _, p in parts:
        scale = lcm(scale, p._den)
    out: dict = {}
    get = out.get
    for c, shift, p in parts:
        c *= scale // p._den
        for key, r in p._terms.items():
            key += shift
            out[key] = get(key, 0) + c * r
    return _reduced(ring, out, den * scale)


def _from_values(ring: PolyRing, values: Mapping[int, Coeff]) -> Polynomial:
    """Build from packed keys with int or Fraction coefficients: the least
    common denominator leaves no factor common to all numerators."""
    terms = {}
    den = 1
    for key, coeff in values.items():
        coeff = normalize_coeff(coeff)
        if coeff:
            terms[key] = coeff
            if type(coeff) is not int:
                den = lcm(den, coeff.denominator)
    if den != 1:
        terms = {k: c.numerator * (den // c.denominator) for k, c in terms.items()}
    return _make(ring, terms, den)


def _monomial_string(variables: Sequence[str], exps: tuple[int, ...]) -> str:
    parts = []
    for name, e in zip(variables, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def term_string(variables: Sequence[str], exps: tuple[int, ...], coeff: Coeff) -> str:
    """Render one term without a leading sign, e.g. ``2*H^2`` or ``H``."""
    mono = _monomial_string(variables, exps)
    mag = -coeff if coeff < 0 else coeff
    if not mono:
        return str(mag)
    if mag == 1:
        return mono
    return "%s*%s" % (mag, mono)


def render_polynomial(poly: Polynomial) -> str:
    """Canonical text form: graded-lex descending terms joined with signs."""
    terms = poly.sorted_terms()
    if not terms:
        return "0"
    pieces = []
    for k, (exps, coeff) in enumerate(terms):
        body = term_string(poly.ring.variables, exps, coeff)
        if k == 0:
            pieces.append("-" + body if coeff < 0 else body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


# -- univariate helpers ----------------------------------------------------


def _univariate_coeffs(poly: Polynomial, name: str) -> list[Coeff]:
    """Dense ascending coefficient list of a polynomial in one variable."""
    used = poly.variables_used()
    if any(v != name for v in used):
        raise GwpaError(
            "polynomial %s is not univariate in %r (uses %r)"
            % (poly, name, list(used))
        )
    if poly.is_zero:
        return []
    coeffs: list[Coeff] = [0] * (poly.total_degree + 1)
    for key, c in poly.packed_items():
        coeffs[key >> poly.ring.top] = c
    return coeffs


def _from_univariate(ring: PolyRing, name: str, coeffs: Sequence[Coeff]) -> Polynomial:
    unit = ring.units[ring.index(name)]
    return _from_values(ring, {e * unit: c for e, c in enumerate(coeffs)})


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Classic division of dense ascending coefficient lists."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("univariate division by zero polynomial")
    while num and num[-1] == 0:
        num.pop()
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    rem = num[:]
    dlead = den[-1]
    while len(rem) >= len(den):
        factor = rem[-1] / dlead
        shift = len(rem) - len(den)
        quot[shift] = factor
        for k, c in enumerate(den):
            rem[shift + k] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def univariate_gcd(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Monic greatest common divisor of two univariate polynomials.

    Both inputs must involve only the named variable (constants are fine).
    The gcd of two zero polynomials is zero; otherwise the result is monic.
    """
    if f.ring != g.ring:
        raise AmbientMismatchError(f.ring.variables, g.ring.variables)
    a = _univariate_coeffs(f, name)
    b = _univariate_coeffs(g, name)
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if not a:
        return f.ring.zero()
    lead = Fraction(a[-1])
    monic = [Fraction(c) / lead for c in a]
    return _from_univariate(f.ring, name, monic)


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f exactly, else None.

    Works for arbitrary multivariate inputs; divisibility by a single
    polynomial is decided by long division against its leading term.
    """
    if f.ring != g.ring:
        raise AmbientMismatchError(f.ring.variables, g.ring.variables)
    if g.is_zero:
        return f.ring.zero() if f.is_zero else None
    if f.is_zero:
        return f.ring.zero()
    g_exps, g_coeff = g.leading_term()
    quotient = f.ring.zero()
    rem = f
    while not rem.is_zero:
        r_exps, r_coeff = rem.leading_term()
        diff = tuple(a - b for a, b in zip(r_exps, g_exps))
        if any(d < 0 for d in diff):
            return None
        factor = f.ring.monomial(diff, Fraction(r_coeff) / g_coeff)
        quotient = quotient + factor
        rem = rem - factor * g
    return quotient


def divides(g: Polynomial, f: Polynomial) -> bool:
    """True when g divides f exactly."""
    return exact_divide(f, g) is not None


def monomial_keys(ring: PolyRing, degree: int) -> list[int]:
    """Packed keys of all monomials of total degree at most ``degree``,
    ascending in graded order.  Deterministic; used to index linear
    systems."""
    check_degree(degree)
    partial = [(0, 0)]  # (key fields so far, degree used so far)
    for _ in ring.variables:
        partial = [
            ((key << FIELD_BITS) | e, used + e)
            for key, used in partial
            for e in range(degree - used + 1)
        ]
    return sorted((used << ring.top) | key for key, used in partial)


def monomials_up_to(ring: PolyRing, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of :func:`monomial_keys`, in the same order."""
    return [ring.unpack(key) for key in monomial_keys(ring, degree)]
