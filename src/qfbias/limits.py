"""Closed-form limit values for polynomial sums over represented primes.

For a form ax^2 + bxy + cy^2 and polynomials f, g of one degree n >= 1, with
leading homogeneous parts f~ and g~, sum f(x_p, y_p) / sum g(x_p, y_p) over
the represented primes converges to

    integral_0^beta f~(s(t), u(t)) dt
    ---------------------------------,  s(t) = sqrt(D) cos t - b sin t,
    integral_0^beta g~(s(t), u(t)) dt   u(t) = 2a sin t,

with beta = pi/2 when a + 2b = 0 and atan(sqrt(D)/(b + 2a)) otherwise; the
implementation takes the atan2 branch in (0, pi) so forms with b + 2a <= 0
get the positive angular width of the boundary ray. The k-th moment ratio
sum x^k / sum y^k is the case f = x^k, g = y^k.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import QuadratureError, ZeroDenominatorError
from .polynomials import BivariatePolynomial, leading_homogeneous_part
from .qform import QuadraticForm

DEFAULT_TOL = 1e-12
DEFAULT_MAX_DEPTH = 60


def beta(form: QuadraticForm) -> float:
    """Integration endpoint for the limit formulas, in (0, pi].

    pi/2 exactly when a + 2b = 0; otherwise the angle of the ray
    (b + 2a, sqrt(D)) in the upper half plane.
    """
    if form.a + 2 * form.b == 0:
        return math.pi / 2
    return math.atan2(math.sqrt(form.D), form.b + 2 * form.a)


def integrand(form: QuadraticForm, poly: BivariatePolynomial) -> Callable[[float], float]:
    """theta -> poly~(s(theta), u(theta)), poly's leading homogeneous part on
    the degree-1 kernels s = sqrt(D) cos - b sin and u = 2a sin."""
    sqd = math.sqrt(form.D)
    # float coefficients, converted once, give the bytes of Fraction * float
    terms = [(float(c), i, j) for (i, j), c in leading_homogeneous_part(poly).terms.items()]

    def fn(theta: float) -> float:
        s = sqd * math.cos(theta) - form.b * math.sin(theta)
        u = 2 * form.a * math.sin(theta)
        total = 0
        for c, i, j in terms:
            total += c * s**i * u**j
        return total

    return fn


def integrate(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = DEFAULT_TOL,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> float:
    """Adaptive Simpson quadrature with Richardson extrapolation.

    Absolute error below tol for smooth integrands, where tol is raised to
    4 machine epsilons times the first Simpson estimate when it is smaller,
    since rounding in the sum alone is that large; raises QuadratureError
    when the recursion budget runs out before the local tolerance is met.
    """
    if not tol > 0:  # also refuses NaN, which no error estimate would ever meet
        raise ValueError("tolerance must be positive")
    if lo > hi:
        raise ValueError("integration bounds out of order")
    if lo == hi:
        return 0.0

    def simpson(fa: float, fm: float, fb: float, h: float) -> float:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, t, depth):
        m = 0.5 * (a + b)
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(fa, flm, fm, m - a)
        right = simpson(fm, frm, fb, b - m)
        err = (left + right - whole) / 15.0
        if abs(err) <= t:
            return left + right + err
        if depth >= max_depth:
            raise QuadratureError(
                f"quadrature did not converge on [{a}, {b}] at depth {depth}"
            )
        half = 0.5 * t
        return recurse(a, m, fa, flm, fm, left, half, depth + 1) + recurse(
            m, b, fm, frm, fb, right, half, depth + 1
        )

    fa, fb = fn(lo), fn(hi)
    fm = fn(0.5 * (lo + hi))
    whole = simpson(fa, fm, fb, hi - lo)
    # the sum itself carries rounding of a few ulps of its size, and the local
    # tolerance halves at each level, so a tol below that is never met
    tol = max(tol, 4 * sys.float_info.epsilon * abs(whole))
    return recurse(lo, hi, fa, fm, fb, whole, tol, 0)


def limit_ratio_moment(form: QuadraticForm, k: int, tol: float = DEFAULT_TOL) -> float:
    """Limit of (sum of x-coordinates^k) / (sum of y-coordinates^k).

    The polynomial limit of x^k / y^k for k >= 1, and 1 at k = 0.
    """
    if k < 0:
        raise ValueError("moment power must be nonnegative")
    if k == 0:
        return 1.0
    x_k = BivariatePolynomial({(k, 0): 1})
    y_k = BivariatePolynomial({(0, k): 1})
    return limit_ratio_poly(form, x_k, y_k, tol)


def limit_ratio_poly(
    form: QuadraticForm,
    f: BivariatePolynomial,
    g: BivariatePolynomial,
    tol: float = DEFAULT_TOL,
) -> float:
    """Limit of sum f(x_p, y_p) / sum g(x_p, y_p) for equal-degree polynomials.

    Both polynomials are replaced by their leading homogeneous parts and
    evaluated on the degree-1 kernels. A denominator integral at most 1e-10
    times the integral of |g~| over (0, beta) vanishes, because the terms of
    g~ cancel there: that is an error, never an infinity, and a sign-definite
    g~ such as y^k is never refused.
    """
    n = f.degree
    if n < 1 or g.degree < 1:
        raise ValueError("polynomials must have degree >= 1")
    if g.degree != n:
        raise ValueError(f"degree mismatch: deg f = {n}, deg g = {g.degree}")
    b = beta(form)
    gtil = integrand(form, g)
    den = integrate(gtil, 0.0, b, tol)
    if abs(den) <= 1e-10 * integrate(lambda t: abs(gtil(t)), 0.0, b, tol):
        raise ZeroDenominatorError(
            f"denominator integral vanishes ({den:.3e}) for g = {g}"
        )
    return integrate(integrand(form, f), 0.0, b, tol) / den
