"""Recursive descent parser for polynomial and element text.

Grammar (whitespace insignificant between tokens):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := rational ('*'? factor)* | factor ('*'? factor)*
    factor   := var ('^' nat)? | '(' expr ')'
    rational := int ('/' nat)?
    var      := [A-Za-z][A-Za-z0-9_]*

A term carries at most one leading rational coefficient.  Parentheses
group a sum, as in the rendered element ``(H1 + 1)*X1^2``; a group holds no
further group and takes no exponent, since a short power of a sum can
expand to an enormous element.  The same grammar parses plain polynomials
(variables drawn from a ring) and algebra elements (variables extended with
generator names such as ``X1`` and ``Y1``); element factors are multiplied
in written order, which matters for noncommutative products.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import cache

from .errors import ParseError

_SYMBOLS = {"+", "-", "*", "^", "/", "(", ")"}

#: Name of a parenthesized factor ``(_GROUP, terms, position)`` in a term.
_GROUP = "("

#: An element generator name X<i> or Y<i>, i written without leading zeros.
_GENERATOR = re.compile(r"([XY])([1-9][0-9]*)")


def digit_limit_message(digits: int) -> str:
    """The error text for a literal past Python's int/str digit limit."""
    return "a number of %d digits exceeds the limit of %d" % (
        digits, sys.get_int_max_str_digits()
    )


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
        if ch.isdecimal():  # what int() reads; a superscript digit is not
            j = i
            while j < n and text[j].isdecimal():
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

    def take_int(self, missing: str) -> int:
        """Consume an integer token; ``missing`` is the error without one."""
        kind, value, where = self.peek()
        if kind != "int":
            self.fail(missing)
        self.advance()
        try:
            return int(value)
        except ValueError:  # longer than the interpreter converts from text
            raise ParseError(digit_limit_message(len(value)), self.text, where) from None

    def parse_rational(self) -> Fraction:
        numerator = self.take_int("expected a number")
        if self.peek()[:2] == ("sym", "/"):
            self.advance()
            denom = self.take_int("expected a denominator after '/'")
            if denom == 0:
                self.fail("zero denominator")
            return Fraction(numerator, denom)
        return Fraction(numerator)

    def parse_term(self, nested: bool):
        """One signless term: (coefficient, [(name, power, position), ...]);
        a parenthesized factor is (_GROUP, its term list, position)."""
        coeff = Fraction(1)
        factors: list[tuple] = []
        kind, value, _ = self.peek()
        if kind == "int":
            coeff = self.parse_rational()
        elif kind != "name" and (kind, value) != ("sym", "("):
            self.fail("expected a number or a variable")
        while True:
            kind, value, where = self.peek()
            if kind == "sym" and value == "*":
                self.advance()
                kind, value, where = self.peek()
                if kind != "name" and (kind, value) != ("sym", "("):
                    self.fail("expected a variable after '*'")
            if (kind, value) == ("sym", "("):
                if nested:
                    self.fail("parentheses do not nest")
                self.advance()
                factors.append((_GROUP, self.parse_expr(nested=True), where))
                self.advance()  # the closing parenthesis
                if self.peek()[:2] == ("sym", "^"):
                    self.fail("a parenthesized sum takes no exponent")
                continue
            if kind != "name":
                break
            self.advance()
            power = 1
            if self.peek()[:2] == ("sym", "^"):
                self.advance()
                power = self.take_int("expected an exponent after '^'")
            factors.append((value, power, where))
        return coeff, factors

    def parse_expr(self, nested: bool = False):
        """Signed term list: [(coefficient, factors), ...].  A nested
        expression stops before its closing parenthesis."""
        closer = ("sym", ")") if nested else ("end", "")
        terms = []
        sign = 1
        kind, value, _ = self.peek()
        if kind == "sym" and value in ("+", "-"):
            self.advance()
            sign = -1 if value == "-" else 1
        while True:
            coeff, factors = self.parse_term(nested)
            terms.append((sign * coeff, factors))
            kind, value, _ = self.peek()
            if (kind, value) == closer:
                return terms
            if kind == "sym" and value in ("+", "-"):
                self.advance()
                sign = -1 if value == "-" else 1
                continue
            self.fail("expected '+', '-' or %s" % ("')'" if nested else "end of input"))


def parse_terms(text: str) -> list[tuple[Fraction, list[tuple[str, int, int]]]]:
    """Parse text into a signed term list without resolving names."""
    return _Parser(text).parse_expr()


def parse_polynomial(text: str, ring) -> "Polynomial":
    """Parse text as a polynomial over the given ring."""
    lookup = cache(lambda name: ring.var(name) if name in ring.variables else None)
    unknown = "unknown variable %%r (ring has %s)" % (
        ", ".join(ring.variables) or "no variables"
    )
    return _evaluate(parse_terms(text), lookup, ring.zero(), ring.const, text, unknown)


def parse_element(text: str, algebra) -> "GWPAElement":
    """Parse text as an element of a generalized Weyl Poisson algebra.

    Recognized names are the base ring variables plus ``Xi`` and ``Yi`` for
    ``i`` between 1 and the rank.  Factors multiply in written order.
    """
    ring, rank = algebra.base_ring, algebra.rank
    @cache
    def lookup(name):
        generator = _GENERATOR.fullmatch(name)
        if generator and len(generator[2]) <= len(str(rank)) and int(generator[2]) <= rank:
            return (algebra.X if generator[1] == "X" else algebra.Y)(int(generator[2]))
        return algebra.scalar(ring.var(name)) if name in ring.variables else None

    unknown = "unknown name %%r (expected a base variable or X1..X%d, Y1..Y%d)" % (rank, rank)
    return _evaluate(parse_terms(text), lookup, algebra.zero(), algebra.scalar, text, unknown)


def _evaluate(terms, lookup, zero, const, text: str, unknown_message: str):
    """The value of a parsed term list: ``lookup`` maps a name to its value,
    None when the name is unknown, ``const`` turns a rational into one, and
    factors multiply in written order.  An unknown name raises ParseError
    with ``unknown_message % name``; a degree past the limit raises from the
    power or product that would reach it."""
    total = zero
    for coeff, factors in terms:
        piece = const(coeff)
        for name, power, where in factors:
            if name == _GROUP:
                piece = piece * _evaluate(power, lookup, zero, const, text, unknown_message)
            elif (value := lookup(name)) is not None:
                piece = piece * value ** power
            else:
                raise ParseError(unknown_message % (name,), text, where)
        total = total + piece
    return total
