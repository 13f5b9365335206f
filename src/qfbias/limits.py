"""Closed-form limit values for the coordinate-sum ratios of represented primes.

For a form ax^2 + bxy + cy^2 the k-th moment ratio converges to

    integral_0^beta (sqrt(D) cos t - b sin t)^k dt
    ---------------------------------------------
    integral_0^beta (2a)^k sin^k t dt

with beta = pi/2 when a + 2b = 0 and atan(sqrt(D)/(b + 2a)) otherwise; the
implementation takes the atan2 branch in (0, pi) so forms with b + 2a <= 0
get the positive angular width of the boundary ray. Polynomial numerators
and denominators enter through their leading homogeneous parts evaluated on
the degree-1 kernels.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
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


def integrand_s(form: QuadraticForm, k: int, theta: float) -> float:
    """(sqrt(D) cos(theta) - b sin(theta))^k."""
    if k < 0:
        raise ValueError("moment power must be nonnegative")
    base = math.sqrt(form.D) * math.cos(theta) - form.b * math.sin(theta)
    return base**k


def integrand_t(form: QuadraticForm, k: int, theta: float) -> float:
    """(2a)^k sin(theta)^k."""
    if k < 0:
        raise ValueError("moment power must be nonnegative")
    return (2 * form.a) ** k * math.sin(theta) ** k


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
    """Limit of (sum of x-coordinates^k) / (sum of y-coordinates^k)."""
    if k < 0:
        raise ValueError("moment power must be nonnegative")
    if k == 0:
        return 1.0
    b = beta(form)
    num = integrate(lambda t: integrand_s(form, k, t), 0.0, b, tol)
    den = integrate(lambda t: integrand_t(form, k, t), 0.0, b, tol)
    # the denominator integrand is nonnegative and positive a.e. on (0, beta)
    assert den > 0.0
    return num / den


def limit_ratio_poly(
    form: QuadraticForm,
    f: BivariatePolynomial,
    g: BivariatePolynomial,
    tol: float = DEFAULT_TOL,
) -> float:
    """Limit of sum f(x_p, y_p) / sum g(x_p, y_p) for equal-degree polynomials.

    Both polynomials are replaced by their leading homogeneous parts and
    evaluated on the degree-1 kernels; a vanishing denominator integral is an
    error, never an infinity.
    """
    n = f.degree
    if n < 1 or g.degree < 1:
        raise ValueError("polynomials must have degree >= 1")
    if g.degree != n:
        raise ValueError(f"degree mismatch: deg f = {n}, deg g = {g.degree}")
    ftil = leading_homogeneous_part(f)
    gtil = leading_homogeneous_part(g)
    b = beta(form)
    sqd = math.sqrt(form.D)

    def kernel_ratio(poly):
        def fn(theta: float) -> float:
            s = sqd * math.cos(theta) - form.b * math.sin(theta)
            t = 2 * form.a * math.sin(theta)
            return float(poly.evaluate(s, t))

        return integrate(fn, 0.0, b, tol)

    num = kernel_ratio(ftil)
    den = kernel_ratio(gtil)
    if abs(den) <= 1e-10 * max(1.0, abs(num)):
        raise ZeroDenominatorError(
            f"denominator integral vanishes ({den:.3e}) for g = {g}"
        )
    return num / den


@dataclass(frozen=True)
class LimitProblem:
    """A form together with moment or polynomial integrand descriptors."""

    form: QuadraticForm
    k: int | None = None
    f: BivariatePolynomial | None = None
    g: BivariatePolynomial | None = None

    def __post_init__(self):
        moment = self.k is not None
        poly = self.f is not None or self.g is not None
        if moment == poly:
            raise ValueError("specify either a moment power or both polynomials")
        if poly and (self.f is None or self.g is None):
            raise ValueError("polynomial problems need both f and g")

    @property
    def beta(self) -> float:
        return beta(self.form)

    def solve(self, tol: float = DEFAULT_TOL) -> float:
        if self.k is not None:
            return limit_ratio_moment(self.form, self.k, tol)
        return limit_ratio_poly(self.form, self.f, self.g, tol)
