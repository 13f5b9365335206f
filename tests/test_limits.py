import math

import pytest

from qfbias.errors import QuadratureError, ZeroDenominatorError
from qfbias.forms import QuadraticForm
from qfbias.limits import beta, integrand, integrate, limit_ratio_moment, limit_ratio_poly
from qfbias.polynomials import parse_polynomial

Q11 = QuadraticForm(1, 0, 1)
Q111 = QuadraticForm(1, 1, 1)

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

# antiderivative values for the sum-of-squares form on [0, pi/4]
MOMENT_CLOSED_Q11 = {
    1: 1.0 + SQRT2,
    2: (math.pi + 2.0) / (math.pi - 2.0),
    3: (25.0 + 20.0 * SQRT2) / 7.0,
}
# independent closed forms for the hexagonal form on [0, pi/6]
MOMENT_CLOSED_Q111 = {
    1: 1.0 + SQRT3,
    2: 2.0 * math.pi / (2.0 * math.pi - 3.0 * SQRT3),
}


class TestBeta:
    def test_sum_of_squares(self):
        assert beta(Q11) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_pi_over_two_branch(self):
        assert beta(QuadraticForm(2, -1, 1)) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_hexagonal(self):
        assert beta(Q111) == pytest.approx(math.pi / 6, abs=1e-12)

    def test_negative_denominator_lands_in_upper_half(self):
        # b + 2a < 0: the branch must add pi, not return a negative angle
        form = QuadraticForm(1, -3, 3)
        assert beta(form) == pytest.approx(2 * math.pi / 3, abs=1e-12)
        assert 0 < beta(form) < math.pi

    def test_range_for_nonnegative_ray(self):
        for coeffs in [(1, 0, 1), (1, 1, 1), (3, 1, 5), (1, 0, 7), (1, -2, 2)]:
            form = QuadraticForm(*coeffs)
            if form.b + 2 * form.a >= 0:
                assert 0 < beta(form) <= math.pi / 2

    def test_vertical_ray_without_degenerate_sum(self):
        # b + 2a = 0 but a + 2b != 0: the atan2 branch must give pi/2
        assert beta(QuadraticForm(1, -2, 2)) == pytest.approx(math.pi / 2, abs=1e-12)


class TestIntegrands:
    # a polynomial's integrand is its leading part on s = sqrt(D) cos - b sin
    # and u = 2a sin; x^k and y^k give the moment integrands s^k and u^k
    def test_s_at_zero(self):
        assert integrand(Q11, parse_polynomial("x"))(0.0) == pytest.approx(2.0)

    def test_s_power_zero(self):
        assert integrand(Q111, parse_polynomial("1"))(0.7) == 1.0

    def test_s_hand_value(self):
        assert integrand(Q111, parse_polynomial("x"))(math.pi / 6) == pytest.approx(1.0)

    def test_t_at_right_angle(self):
        assert integrand(Q11, parse_polynomial("y"))(math.pi / 2) == pytest.approx(2.0)

    def test_t_power_zero(self):
        assert integrand(Q11, parse_polynomial("1"))(0.3) == 1.0

    def test_t_hand_value(self):
        assert integrand(Q11, parse_polynomial("y^2"))(math.pi / 4) == pytest.approx(2.0)


class TestIntegrate:
    def test_cosine(self):
        got = integrate(lambda t: 2 * math.cos(t), 0.0, math.pi / 4, tol=1e-12)
        assert got == pytest.approx(SQRT2, abs=1e-12)

    def test_empty_interval(self):
        assert integrate(math.sin, 1.0, 1.0) == 0.0

    def test_sine(self):
        got = integrate(lambda t: 2 * math.sin(t), 0.0, math.pi / 4, tol=1e-12)
        assert got == pytest.approx(2.0 - SQRT2, abs=1e-12)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda t: abs(t - 1 / math.pi), 0.0, 1.0, tol=1e-15, max_depth=3)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            integrate(math.sin, 0.0, 1.0, tol=tol)


class TestMomentRatios:
    @pytest.mark.parametrize("k,value", sorted(MOMENT_CLOSED_Q11.items()))
    def test_sum_of_squares_closed_forms(self, k, value):
        assert limit_ratio_moment(Q11, k) == pytest.approx(value, abs=1e-10)

    @pytest.mark.parametrize("k,value", sorted(MOMENT_CLOSED_Q111.items()))
    def test_hexagonal_closed_forms(self, k, value):
        assert limit_ratio_moment(Q111, k) == pytest.approx(value, abs=1e-10)

    def test_power_zero_degenerates_to_one(self):
        for form in (Q11, Q111, QuadraticForm(2, -1, 1)):
            assert limit_ratio_moment(form, 0) == 1.0

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="moment power must be nonnegative"):
            limit_ratio_moment(Q11, -1)

    @pytest.mark.parametrize("coeffs", [(1, 0, 1), (1, 0, 5), (1, 0, 6), (1, 0, 14), (2, 0, 7)])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_b_zero_forms_against_reduction_formula(self, coeffs, k):
        # b = 0: the ratio is D^(k/2) int cos^k / ((2a)^k int sin^k) on [0, beta],
        # and int_0^beta cos^k, sin^k follow from the reduction formulas
        form = QuadraticForm(*coeffs)
        bt = beta(form)
        c, s = math.cos(bt), math.sin(bt)
        cos_int = [bt, s]
        sin_int = [bt, 1.0 - c]
        for n in range(2, k + 1):
            cos_int.append(c ** (n - 1) * s / n + (n - 1) / n * cos_int[n - 2])
            sin_int.append(-(s ** (n - 1)) * c / n + (n - 1) / n * sin_int[n - 2])
        closed = math.sqrt(form.D) ** k * cos_int[k] / ((2 * form.a) ** k * sin_int[k])
        assert limit_ratio_moment(form, k) == pytest.approx(closed, rel=1e-12)


class TestPolyRatios:
    def test_linear_matches_first_moment(self):
        f, g = parse_polynomial("x"), parse_polynomial("y")
        assert limit_ratio_poly(Q11, f, g) == pytest.approx(1.0 + SQRT2, abs=1e-10)

    def test_equal_polynomials_give_one(self):
        f = parse_polynomial("2x^2 - xy + 3y^2")
        assert limit_ratio_poly(Q11, f, f) == pytest.approx(1.0, abs=1e-12)

    def test_squares_match_second_moment(self):
        f, g = parse_polynomial("x^2"), parse_polynomial("y^2")
        assert limit_ratio_poly(Q11, f, g) == pytest.approx(
            MOMENT_CLOSED_Q11[2], abs=1e-10
        )

    @pytest.mark.parametrize("form", [Q11, Q111])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_consistency_with_moments(self, form, k):
        f = parse_polynomial(f"x^{k}")
        g = parse_polynomial(f"y^{k}")
        assert limit_ratio_poly(form, f, g) == pytest.approx(
            limit_ratio_moment(form, k), abs=1e-10
        )

    def test_lower_order_terms_are_ignored(self):
        f = parse_polynomial("x^2 + 17x - 3")
        g = parse_polynomial("y^2 - y + 1/2")
        assert limit_ratio_poly(Q11, f, g) == pytest.approx(
            MOMENT_CLOSED_Q11[2], abs=1e-10
        )

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            limit_ratio_poly(Q11, parse_polynomial("x^2"), parse_polynomial("y"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            limit_ratio_poly(Q11, parse_polynomial("3"), parse_polynomial("4"))

    def test_vanishing_denominator_is_an_error(self):
        # for x^2+y^2 the degree-2 kernel integrals satisfy
        # I(x^2) = pi/2 + 1, I(xy) = 1, I(y^2) = pi/2 - 1, so this combination
        # integrates to exactly zero
        g = parse_polynomial("-x^2 + 2xy + y^2")
        with pytest.raises(ZeroDenominatorError):
            limit_ratio_poly(Q11, parse_polynomial("x^2"), g)

