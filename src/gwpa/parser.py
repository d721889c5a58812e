"""Recursive descent parser for polynomial and element text.

Grammar (whitespace insignificant between tokens):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*'? factor)* | factor ('*'? factor)*
    factor   := var ('^' nat)?
    rational := int ('/' nat)?
    var      := [A-Za-z][A-Za-z0-9_]*

A term carries at most one leading rational coefficient.  The same grammar
parses plain polynomials (variables drawn from a ring) and algebra elements
(variables extended with generator names such as ``X1`` and ``Y1``); element
factors are multiplied in written order, which matters for noncommutative
products.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .poly import Polynomial, check_degree

_SYMBOLS = {"+", "-", "*", "^", "/"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kinds are sym, int, name."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, text, i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message):
        raise ParseError(message, self.text, self.peek()[2])

    def parse_rational(self) -> Fraction:
        kind, value, _ = self.peek()
        if kind != "int":
            self.fail("expected a number")
        self.advance()
        numerator = int(value)
        if self.peek()[:2] == ("sym", "/"):
            self.advance()
            kind, denom, _ = self.peek()
            if kind != "int":
                self.fail("expected a denominator after '/'")
            self.advance()
            if int(denom) == 0:
                self.fail("zero denominator")
            return Fraction(numerator, int(denom))
        return Fraction(numerator)

    def parse_term(self):
        """One signless term: (coefficient, [(name, power, position), ...])."""
        coeff = Fraction(1)
        factors: list[tuple[str, int, int]] = []
        kind, _, _ = self.peek()
        if kind == "int":
            coeff = self.parse_rational()
        elif kind != "name":
            self.fail("expected a number or a variable")
        while True:
            kind, value, where = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                kind, value, where = self.peek()
                if kind != "name":
                    self.fail("expected a variable after '*'")
            if kind != "name":
                break
            self.advance()
            power = 1
            if self.peek()[:2] == ("sym", "^"):
                self.advance()
                kind, exp, _ = self.peek()
                if kind != "int":
                    self.fail("expected an exponent after '^'")
                self.advance()
                power = int(exp)
            factors.append((value, power, where))
        return coeff, factors

    def parse_expr(self):
        """Signed term list: [(coefficient, factors), ...]."""
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "sym" and value in ("+", "-"):
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            coeff, factors = self.parse_term()
            terms.append((sign * coeff, factors))
            kind, value, _ = self.peek()
            if kind == "end":
                return terms
            if kind == "sym" and value in ("+", "-"):
                self.advance()
                sign = -1 if value == "-" else 1
                continue
            self.fail("expected '+', '-' or end of input")


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int, int]]]]:
    """Parse text into a signed term list without resolving names."""
    return _Parser(text).parse_expr()


def parse_polynomial(text: str, ring) -> "Polynomial":
    """Parse text as a polynomial over the given ring."""
    total = ring.zero()
    for coeff, factors in parse_terms(text):
        exps = [0] * ring.nvars
        for name, power, where in factors:
            if name not in ring.variables:
                raise ParseError(
                    "unknown variable %r (ring has %s)"
                    % (name, ", ".join(ring.variables) or "no variables"),
                    text,
                    where,
                )
            exps[ring.index(name)] += power
        total = total + Polynomial(ring, {tuple(exps): coeff})
    return total


def parse_element(text: str, algebra) -> "GWPAElement":
    """Parse text as an element of a generalized Weyl Poisson algebra.

    Recognized names are the base ring variables plus ``Xi`` and ``Yi`` for
    ``i`` between 1 and the rank.  Factors multiply in written order.
    """
    ring = algebra.base_ring
    atoms = {}
    for name in ring.variables:
        atoms[name] = algebra.scalar(ring.var(name))
    for i in range(1, algebra.rank + 1):
        atoms["X%d" % i] = algebra.X(i)
        atoms["Y%d" % i] = algebra.Y(i)
    total = algebra.zero()
    for coeff, factors in parse_terms(text):
        piece = algebra.scalar(ring.const(coeff))
        for name, power, where in factors:
            if name not in atoms:
                raise ParseError(
                    "unknown name %r (expected a base variable or X1..X%d, Y1..Y%d)"
                    % (name, algebra.rank, algebra.rank),
                    text,
                    where,
                )
            if name in ring.variables:
                check_degree(power)
            piece = piece * atoms[name] ** power
        total = total + piece
    return total
