"""Exact multivariate polynomials over the rationals.

A polynomial is stored sparsely as a map from exponent tuples to nonzero
rational coefficients.  Coefficients are Python ints whenever the value is
integral and ``fractions.Fraction`` otherwise; both are exact and mix freely
in arithmetic.  All operations are total and side-effect free, and rendering
is canonical: terms are emitted in graded lexicographic descending order with
reduced coefficients, so equal polynomials render to identical strings.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import AmbientMismatchError, GwpaError

Coeff = Union[int, Fraction]

#: Degree of the zero polynomial.  Compares below every integer.
NEG_INF = float("-inf")


def normalize_coeff(value) -> Coeff:
    """Return ``value`` as an int when integral, else a reduced Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and int subclasses
        return int(value)
    raise TypeError("coefficient must be int or Fraction, got %r" % (value,))


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Sort key for graded lexicographic order (first variable is largest)."""
    return (sum(exps), exps)


class PolyRing:
    """A rational polynomial ring with a fixed ordered tuple of variables.

    Rings compare by value: two rings with the same variable tuple are
    interchangeable.  The variable list may be empty, which models the plain
    rational constants.
    """

    __slots__ = ("variables", "_index")

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

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def const(self, value) -> "Polynomial":
        value = normalize_coeff(value)
        if value == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: value})

    def var(self, name: str) -> "Polynomial":
        i = self.index(name)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {exps: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(name) for name in self.variables)

    def monomial(self, exps: Sequence[int], coeff=1) -> "Polynomial":
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise GwpaError("invalid exponent tuple %r" % (exps,))
        return Polynomial(self, {exps: coeff})

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

    Arithmetic accepts ints and Fractions as scalars.  Operations between
    polynomials require equal rings and raise :class:`AmbientMismatchError`
    otherwise.
    """

    __slots__ = ("ring", "_terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Mapping[tuple[int, ...], Coeff]):
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, coeff in terms.items():
            coeff = normalize_coeff(coeff)
            if coeff:
                clean[exps] = coeff
        self.ring = ring
        self._terms = clean
        self._hash = None

    # -- introspection -------------------------------------------------

    def terms(self) -> dict[tuple[int, ...], Coeff]:
        """A copy of the exponent-to-coefficient map."""
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_constant(self) -> bool:
        zero = (0,) * self.ring.nvars
        return all(e == zero for e in self._terms)

    def constant_value(self) -> Coeff:
        """The coefficient of the constant monomial (the full value when
        ``is_constant``)."""
        return self._terms.get((0,) * self.ring.nvars, 0)

    @property
    def total_degree(self):
        if not self._terms:
            return NEG_INF
        return max(sum(e) for e in self._terms)

    def weighted_degree(self, weights: Sequence[int]):
        """Largest weighted degree of a monomial, NEG_INF for zero."""
        if not self._terms:
            return NEG_INF
        return max(sum(e * w for e, w in zip(exps, weights)) for exps in self._terms)

    def weighted_component(self, weights: Sequence[int], degree) -> "Polynomial":
        """The weighted-homogeneous slice of the given degree."""
        picked = {
            exps: c
            for exps, c in self._terms.items()
            if sum(e * w for e, w in zip(exps, weights)) == degree
        }
        return Polynomial(self.ring, picked)

    def variables_used(self) -> tuple[str, ...]:
        """Names of variables appearing with nonzero exponent."""
        used = [False] * self.ring.nvars
        for exps in self._terms:
            for i, e in enumerate(exps):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.ring.variables, used) if u)

    def leading_term(self) -> tuple[tuple[int, ...], Coeff]:
        """Exponents and coefficient of the graded-lex largest monomial."""
        if not self._terms:
            raise GwpaError("zero polynomial has no leading term")
        exps = max(self._terms, key=grlex_key)
        return exps, self._terms[exps]

    def coefficient(self, exps: tuple[int, ...]) -> Coeff:
        return self._terms.get(tuple(exps), 0)

    # -- arithmetic ----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
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
        out = dict(self._terms)
        for exps, coeff in other._terms.items():
            acc = out.get(exps, 0) + coeff
            if acc:
                out[exps] = acc
            else:
                out.pop(exps, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = normalize_coeff(other)
            if other == 0:
                return self.ring.zero()
            return Polynomial(
                self.ring, {e: c * other for e, c in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        out: dict[tuple[int, ...], Coeff] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(exps, 0) + c1 * c2
                if acc:
                    out[exps] = acc
                else:
                    out.pop(exps, None)
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise GwpaError("polynomial powers must be nonnegative integers")
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
        out: dict[tuple[int, ...], Coeff] = {}
        for exps, coeff in self._terms.items():
            e = exps[i]
            if e:
                lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                acc = out.get(lowered, 0) + coeff * e
                if acc:
                    out[lowered] = acc
                else:
                    out.pop(lowered, None)
        return Polynomial(self.ring, out)

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Substitute polynomials for variables; unmapped variables persist.

        All images must live in the same ring as this polynomial.
        """
        table: dict[int, Polynomial] = {}
        for name, image in images.items():
            i = self.ring.index(name)
            self._check_ring(image)
            table[i] = image
        result = self.ring.zero()
        for exps, coeff in self._terms.items():
            factor = self.ring.const(coeff)
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i in table:
                    factor = factor * table[i] ** e
                else:
                    factor = factor * self.ring.monomial(
                        tuple(e if j == i else 0 for j in range(self.ring.nvars))
                    )
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
        out: dict[tuple[int, ...], Coeff] = {}
        for exps, coeff in self._terms.items():
            new = [0] * target.nvars
            for i, e in enumerate(exps):
                if not e:
                    continue
                if i not in positions:
                    raise GwpaError(
                        "variable %r has no image in the target ring"
                        % self.ring.variables[i]
                    )
                new[positions[i]] += e
            key = tuple(new)
            acc = out.get(key, 0) + coeff
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        return Polynomial(target, out)

    # -- equality and rendering ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            items = tuple(sorted(self._terms.items()))
            self._hash = hash((self.ring.variables, items))
        return self._hash

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Coeff]]:
        """Terms in graded-lex descending order."""
        return sorted(self._terms.items(), key=lambda kv: grlex_key(kv[0]), reverse=True)

    def __str__(self):
        return render_polynomial(self)

    def __repr__(self):
        return "Polynomial(%s)" % self


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
    i = poly.ring.index(name)
    if poly.is_zero:
        return []
    deg = max(e[i] for e in poly._terms)
    coeffs: list[Coeff] = [0] * (deg + 1)
    for exps, c in poly._terms.items():
        coeffs[exps[i]] = c
    return coeffs


def _from_univariate(ring: PolyRing, name: str, coeffs: Sequence[Coeff]) -> Polynomial:
    i = ring.index(name)
    terms = {}
    for e, c in enumerate(coeffs):
        if c:
            terms[tuple(e if j == i else 0 for j in range(ring.nvars))] = c
    return Polynomial(ring, terms)


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
        factor = Polynomial(
            f.ring, {diff: normalize_coeff(Fraction(r_coeff) / Fraction(g_coeff))}
        )
        quotient = quotient + factor
        rem = rem - factor * g
    return quotient


def divides(g: Polynomial, f: Polynomial) -> bool:
    """True when g divides f exactly."""
    return exact_divide(f, g) is not None


def monomials_up_to(ring: PolyRing, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree at most ``degree``, ascending
    in graded order.  Deterministic; used to index linear systems."""
    out: list[tuple[int, ...]] = []
    n = ring.nvars
    if n == 0:
        return [()]

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n - 1:
            for e in range(remaining + 1):
                out.append(tuple(prefix + [e]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, pos + 1)

    rec([], degree, 0)
    out.sort(key=grlex_key)
    return out
