"""Exact bivariate polynomials over the rationals, with a small text grammar.

Grammar: signed terms joined by '+'/'-'; a term is an optional coefficient
(integer or p/q) followed by optional x and y powers, with '*' separators and
whitespace allowed. Examples: "x", "3x^2y - x*y + 7", "1/2 x y^3".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

Exponents = tuple[int, int]


class PolynomialSyntaxError(ValueError):
    """Malformed polynomial text; carries the 0-based character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class BivariatePolynomial:
    """Finite map from exponent pairs (i, j) to nonzero rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Exponents, Fraction | int]):
        cleaned = {}
        for (i, j), coef in terms.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative exponent in term x^{i} y^{j}")
            coef = Fraction(coef)
            if coef != 0:
                cleaned[(int(i), int(j))] = coef
        self._terms = cleaned

    @property
    def terms(self) -> dict[Exponents, Fraction]:
        return dict(self._terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def evaluate(self, x, y):
        """Value at (x, y); exact for int/Fraction arguments, float for floats."""
        total = 0
        for (i, j), coef in self._terms.items():
            total += coef * x**i * y**j
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        ordered = sorted(
            self._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])
        )
        pieces = []
        for idx, ((i, j), coef) in enumerate(ordered):
            var = ""
            if i:
                var += "x" if i == 1 else f"x^{i}"
            if j:
                var += "y" if j == 1 else f"y^{j}"
            mag = abs(coef)
            if not var:
                body = str(mag)
            elif mag == 1:
                body = var
            else:
                body = f"{mag}{var}"
            if idx == 0:
                pieces.append(body if coef > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coef > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"BivariatePolynomial({str(self)!r})"


def leading_homogeneous_part(poly: BivariatePolynomial) -> BivariatePolynomial:
    """The top-degree homogeneous component (all terms with i + j = degree).

    Equals the polynomial itself when it is already homogeneous. The zero
    polynomial has no leading part and is rejected.
    """
    if poly.is_zero:
        raise ValueError("zero polynomial has no leading homogeneous part")
    n = poly.degree
    return BivariatePolynomial(
        {(i, j): c for (i, j), c in poly.terms.items() if i + j == n}
    )


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _skip_ws(text: str, i: int) -> int:
    while i < len(text) and text[i].isspace():
        i += 1
    return i


def _scan_int(text: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(text) and text[i].isdigit():
        i += 1
    if i == start:
        raise PolynomialSyntaxError("expected digits", start)
    return int(text[start:i]), i


def _scan_term(text: str, i: int) -> tuple[Exponents, Fraction, int]:
    """One unsigned term starting at i; returns ((i, j), coefficient, next)."""
    n = len(text)
    coef = Fraction(1)
    have_any = False
    if i < n and text[i].isdigit():
        num, i = _scan_int(text, i)
        i = _skip_ws(text, i)
        if i < n and text[i] == "/":
            pos = i + 1
            i = _skip_ws(text, pos)
            den, i = _scan_int(text, i)
            if den == 0:
                raise PolynomialSyntaxError("zero denominator in coefficient", pos)
            coef = Fraction(num, den)
        else:
            coef = Fraction(num)
        have_any = True

    exps = {"x": 0, "y": 0}
    for var in ("x", "y"):
        j = _skip_ws(text, i)
        if have_any and j < n and text[j] == "*":
            j = _skip_ws(text, j + 1)
            if j >= n or text[j] not in ("x", "y"):
                raise PolynomialSyntaxError("expected variable after '*'", j)
        if j < n and text[j] == var:
            j += 1
            exp = 1
            k = _skip_ws(text, j)
            if k < n and text[k] == "^":
                k = _skip_ws(text, k + 1)
                exp, k = _scan_int(text, k)
                j = k
            exps[var] = exp
            i = j
            have_any = True

    if not have_any:
        raise PolynomialSyntaxError("expected term", i)
    return (exps["x"], exps["y"]), coef, i


def parse_polynomial(text: str) -> BivariatePolynomial:
    """Parse the term grammar into a canonical polynomial.

    Printing the result and parsing it again is a fixed point. Raises
    PolynomialSyntaxError with the offending character position.
    """
    n = len(text)
    i = _skip_ws(text, 0)
    if i == n:
        raise PolynomialSyntaxError("empty polynomial", i)
    acc: dict[Exponents, Fraction] = {}
    sign = 1
    if text[i] in "+-":
        sign = -1 if text[i] == "-" else 1
        i = _skip_ws(text, i + 1)
    while True:
        key, coef, i = _scan_term(text, i)
        acc[key] = acc.get(key, Fraction(0)) + sign * coef
        i = _skip_ws(text, i)
        if i == n:
            break
        if text[i] not in "+-":
            raise PolynomialSyntaxError(f"unexpected character {text[i]!r}", i)
        sign = -1 if text[i] == "-" else 1
        i = _skip_ws(text, i + 1)
        if i == n:
            raise PolynomialSyntaxError("expected term", i)
    return BivariatePolynomial(acc)
