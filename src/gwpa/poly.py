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

import operator
import sys
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence, Union

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
    """Return an exact rational ``value`` as an int when integral, else a
    reduced Fraction; GwpaError for anything else, such as a float."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and int subclasses
        return operator.index(value)
    raise GwpaError("coefficient must be int or Fraction, got %r" % (value,))


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

    __slots__ = ("variables", "_index", "top", "units", "_shifts", "_weighers", "_zero")

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
        self._weighers: dict = {}  # weight tuple -> (weigher, uniform)
        self._zero = _make(self, {})

    def _weigher(self, weights: Sequence[int]):
        """The weighted degree of a packed key, as a function, and whether
        the weights are uniform (then it reads the total degree field, and
        the largest key has the largest weight); kept per weight tuple."""
        weights = tuple(weights)
        entry = self._weighers.get(weights)
        if entry is None:
            uniform = len(set(weights)) == 1
            if uniform:
                top, w = self.top, weights[0]
                weigh = lambda key: w * (key >> top)
            else:
                pairs = tuple(zip(weights, self._shifts))
                weigh = lambda key: sum(w * ((key >> s) & _MASK) for w, s in pairs)
            entry = self._weighers[weights] = (weigh, uniform)
        return entry

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
        """The packed key of an exponent tuple of nonnegative integers."""
        ints = _integers(exps, "invalid exponent tuple %r")
        if len(ints) != len(self.variables) or min(ints, default=0) < 0:
            raise GwpaError("invalid exponent tuple %r" % (tuple(exps),))
        key = sum(ints)
        check_degree(key)
        for e in ints:
            key = (key << FIELD_BITS) | e
        return key

    def unpack(self, key: int) -> tuple[int, ...]:
        """The exponent tuple of a packed key."""
        return tuple([(key >> s) & _MASK for s in self._shifts])

    def zero(self) -> "Polynomial":
        """The zero polynomial: one object per ring, returned by every call,
        so it must never be mutated."""
        return self._zero

    def one(self) -> "Polynomial":
        return _make(self, {0: 1})

    def const(self, value) -> "Polynomial":
        return _from_values(self, {0: value})

    def var(self, name: str) -> "Polynomial":
        return _make(self, {self.units[self.index(name)]: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(name) for name in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Polynomial":
        return _from_values(self, {self.pack(exps): coeff})

    def extended(self, extra: Sequence[str]) -> "PolyRing":
        """Ring with ``extra`` variables appended after the current ones."""
        return PolyRing(self.variables + tuple(extra))

    def __eq__(self, other):
        return self is other or isinstance(other, PolyRing) and self.variables == other.variables

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

    __slots__ = ("ring", "_terms", "_den")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Coeff]):
        built = _from_values(ring, {ring.pack(e): c for e, c in terms.items()})
        self.ring, self._terms, self._den = ring, built._terms, built._den

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

    def weighted_degree(self, weights: Sequence[int]):
        """Largest weighted degree of a monomial, NEG_INF for zero."""
        if not self._terms:
            return NEG_INF
        weigh, uniform = self.ring._weigher(weights)
        if uniform:  # the graded maximum has the top degree
            return weigh(max(self._terms))
        return max(map(weigh, self._terms))

    def weighted_component(self, weights: Sequence[int], degree) -> "Polynomial":
        """The weighted-homogeneous slice of the given degree."""
        weigh = self.ring._weigher(weights)[0]
        picked = {k: c for k, c in self._terms.items() if weigh(k) == degree}
        if len(picked) == len(self._terms):
            return self
        return _reduced(self.ring, picked, self._den)

    def variables_used(self) -> tuple[str, ...]:
        """Names of variables appearing with nonzero exponent, in ring order:
        the nonzero exponent fields of the union of the keys, read from the
        top down, so the cost follows the variables used, not the ring's."""
        used, top, names = 0, self.ring.top, []
        for key in self._terms:
            used |= key
        used &= (1 << top) - 1  # the exponent fields, without the degree
        while used:
            shift = (used.bit_length() - 1) // FIELD_BITS * FIELD_BITS
            names.append(self.ring.variables[(top - shift) // FIELD_BITS - 1])
            used &= (1 << shift) - 1
        return tuple(names)

    def leading_term(self) -> tuple[tuple[int, ...], Coeff]:
        """Exponents and coefficient of the graded-lex largest monomial."""
        if not self._terms:
            raise GwpaError("zero polynomial has no leading term")
        key = max(self._terms)
        return self.ring.unpack(key), _ratio(self._terms[key], self._den)

    def coefficient(self, exps: tuple[int, ...]) -> Coeff:
        """The coefficient of a monomial; 0 for integer exponents no
        monomial has (negative, or of too high a degree)."""
        exps = tuple(exps)
        if len(exps) != self.ring.nvars:
            raise GwpaError(
                "exponent tuple %r does not match %d variables" % (exps, self.ring.nvars)
            )
        ints = _integers(exps, "invalid exponent tuple %r")
        try:
            key = self.ring.pack(ints)
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
        den = self._den * other._den
        if len(t1) > len(t2):  # the shorter factor drives the outer loop
            t1, t2 = t2, t1
        if len(t1) == 1:
            (k1, c1), = t1.items()
            if k1:
                check_degree((k1 >> top) + (max(t2) >> top))
            elif c1 == 1 and (rest := other if t1 is self._terms else self)._den == den:
                return rest  # the factor t1 is the constant 1
            out = {k1 + k2: c1 * c2 for k2, c2 in t2.items()}
            if den == 1:
                return _make(ring, out)
        else:
            check_degree((max(t1) >> top) + (max(t2) >> top))
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
        return power(self, exponent, self.ring.one())

    def __truediv__(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if scalar == 0:
                raise ZeroDivisionError("division of polynomial by zero scalar")
            return self * (Fraction(1) / scalar)
        return NotImplemented

    # -- calculus and substitution --------------------------------------

    def partial(self, name: str) -> "Polynomial":
        """Formal partial derivative with respect to one variable."""
        return _reduced(self.ring, dict(_partial_terms(self, self.ring.index(name))), self._den)

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
        table = list(self.ring.gens())
        for name, image in images.items():
            i = self.ring.index(name)
            self._check_ring(image)
            table[i] = image
        return self.map_monomials(lambda key: monomial_image(self.ring, table, key))

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
        if self.is_constant:  # equal to its value, so it hashes as that value
            return hash(self.constant_value())
        return hash((self.ring.variables, tuple(sorted(self.items()))))

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


def _integers(values: Sequence[int], message: str) -> tuple[int, ...]:
    """The entries of a caller's integer sequence as ints (anything with
    ``__index__``, so ``True`` reads as 1); for any other entry GwpaError
    with ``message``, which names the sequence as its one ``%r``."""
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise GwpaError(message % (tuple(values),)) from None


def _make(ring: PolyRing, terms: dict, den: int = 1) -> Polynomial:
    """Trusted constructor: ``terms`` maps packed keys to nonzero int
    numerators over ``den`` > 0, with no factor common to all of them."""
    poly = object.__new__(Polynomial)
    poly.ring, poly._terms, poly._den = ring, terms, den
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


def _partial_terms(f: Polynomial, i: int) -> list[tuple[int, int]]:
    """The terms of df/dx_i, the i-th variable, as (packed key, numerator
    over the denominator of f)."""
    shift, unit = f.ring._shifts[i], f.ring.units[i]
    return [(key - unit, c * e) for key, c in f._terms.items() if (e := (key >> shift) & _MASK)]


def _combination(ring: PolyRing, parts, den: int = 1) -> Polynomial:
    """The sum of c x^shift p over the (int c, packed shift, polynomial p)
    in ``parts``, divided by ``den``: the one accumulation loop, behind every
    linear map that is given by its images of monomials and every sum of
    products.  A product x^shift p of total degree ``DEGREE_LIMIT`` or more
    raises :class:`GwpaError`, as in a polynomial product."""
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
    top = ring.top
    if out and max(out) >> top >= DEGREE_LIMIT:
        # A key at the limit may have carried into the field above it, so
        # take the degree from the factors.
        check_degree(max((shift >> top) + p.total_degree for _, shift, p in parts))
    return _reduced(ring, out, den * scale)


def monomial_image(ring: PolyRing, table: Sequence[Polynomial], key: int) -> Polynomial:
    """The image of the packed monomial ``key`` under the ring map sending
    the i-th variable to ``table[i]``: the product of table[i] ** e_i."""
    image = ring.one()
    for target, e in zip(table, ring.unpack(key)):
        if e:
            image = image * target ** e
    return image


def power(x, n: int, one):
    """``x`` to the int ``n`` >= 0 by repeated squaring, starting from the
    identity ``one``: the one power loop behind polynomials, graded elements
    and substitutions, whose ``__pow__`` checks the exponent first."""
    result = one
    while n:
        if n & 1:
            result = result * x
        n >>= 1
        if n:
            x = x * x
    return result


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
    try:
        digits = str(mag)
    except ValueError:  # an int longer than the interpreter converts to text
        raise GwpaError(
            "a coefficient has more than %d digits, the limit for rendering"
            % sys.get_int_max_str_digits()
        ) from None
    if not mono:
        return digits
    if mag == 1:
        return mono
    return "%s*%s" % (digits, mono)


def join_signed(pieces: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, body) pairs into signed text: ``-`` before a negative
    first body, then ``+ `` or ``- `` before each later one; ``0`` if none."""
    out = []
    for negative, body in pieces:
        if not out:
            out.append("-" + body if negative else body)
        else:
            out.append(("- " if negative else "+ ") + body)
    return " ".join(out) or "0"


def render_polynomial(poly: Polynomial) -> str:
    """Canonical text form: graded-lex descending terms joined with signs."""
    variables = poly.ring.variables
    return join_signed(
        (coeff < 0, term_string(variables, exps, coeff))
        for exps, coeff in poly.sorted_terms()
    )


# -- division ----------------------------------------------------------------


def _divmod(f: Polynomial, g: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Quotient q and remainder r of f by a nonzero g in graded-lex order:
    f = q*g + r and no term of r is divisible by the leading monomial of g, so
    in one variable this is Euclidean division (Cox, Little and O'Shea, ch. 2
    section 3)."""
    f._check_ring(g)
    lead = max(g._terms)
    fields = [(s, e) for s in g.ring._shifts if (e := (lead >> s) & _MASK)]
    inverse = Fraction(g._den, g._terms[lead])
    tail = [(k - lead, Fraction(c, g._den)) for k, c in g._terms.items() if k != lead]
    work = {k: Fraction(c, f._den) for k, c in f._terms.items()}
    quotient, remainder = {}, {}
    while work:
        key = max(work)
        c = work.pop(key)
        if not all((key >> s) & _MASK >= e for s, e in fields):
            remainder[key] = c
            continue
        factor = c * inverse
        quotient[key - lead] = factor
        for k, d in tail:  # every tail key lies below lead, so k + key < key
            k += key
            if v := work.get(k, 0) - factor * d:
                work[k] = v
            else:
                del work[k]
    return _from_values(g.ring, quotient), _from_values(g.ring, remainder)


def univariate_gcd(f: Polynomial, g: Polynomial, name: str) -> Polynomial:
    """Monic greatest common divisor of two univariate polynomials.

    Both inputs must involve only the named variable (constants are fine).
    The gcd of two zero polynomials is zero; otherwise the result is monic.
    """
    f._check_ring(g)
    for poly in (f, g):
        used = poly.variables_used()
        if any(v != name for v in used):
            raise GwpaError(
                "polynomial %s is not univariate in %r (uses %r)"
                % (poly, name, list(used))
            )
    while not g.is_zero:
        f, g = g, _divmod(f, g)[1]
    if f.is_zero:
        return f
    return f._scaled(Fraction(f._den, f._terms[max(f._terms)]))


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """Quotient f/g when g divides f exactly, else None.

    Works for arbitrary multivariate inputs: g divides f exactly when the
    division of f by g leaves no remainder.
    """
    if g.is_zero:
        f._check_ring(g)
        return f if f.is_zero else None
    quotient, remainder = _divmod(f, g)
    return None if remainder._terms else quotient


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
