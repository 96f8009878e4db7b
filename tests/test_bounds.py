import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chromadisk import bounds
from chromadisk import (
    BoundResult,
    DomainError,
    EnumerationCapError,
    REFERENCE_TABLE,
    constants_table,
    fixed_a_bound,
    kappa_for_bounds,
    minimize_c,
    ratio_bound,
    solve_x,
)
from chromadisk.bounds import MAX_TABLE_ROWS, X_BISECTION_TOL, X_CAP_SLACK
from oracles import minimize_c_nested, solve_x_linear

TOL = 5e-6


class TestRatioBound:
    def test_kappa_zero_is_linear(self):
        for a in (0.1, 1 / 3, 0.8):
            for x in (0.0, 0.2, 0.5):
                for i in (0, 1):
                    assert ratio_bound(i, 0.0, a, x) == pytest.approx((1 - a) * x, abs=1e-15)

    def test_kappa_zero_third_at_half(self):
        assert ratio_bound(0, 0.0, 1 / 3, 0.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_spot_value_at_half(self):
        # h(1/2) = 4: (1-a)/2 + (kappa/16)((1-a)^2 + 9) at a=0.5, kappa=1, i=1
        assert ratio_bound(1, 1.0, 0.5, 0.5) == pytest.approx(0.828125, abs=1e-12)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            ratio_bound(2, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            ratio_bound(0, 1.2, 0.5, 0.5)
        with pytest.raises(DomainError):
            ratio_bound(0, 0.5, 0.0, 0.5)
        with pytest.raises(DomainError):
            ratio_bound(0, 0.5, 0.5, 0.6)

    def test_nan_x_is_outside_the_domain(self):
        with pytest.raises(DomainError):
            ratio_bound(0, 0.5, 0.5, math.nan)


class TestThreshold:
    def test_kappa_zero_hits_cap(self):
        assert solve_x(0, 0.0, 1 / 3) == 0.5
        assert solve_x(1, 0.0, 0.4) == 0.5

    def test_kappa_zero_below_cap(self):
        assert solve_x(0, 0.0, 0.25) == pytest.approx(1 / 3, abs=1e-12)

    def test_bisection_matches_linear_form(self):
        for a in (0.05, 0.2, 1 / 3, 0.45, 0.9):
            for i in (0, 1):
                assert solve_x(i, 0.0, a) == pytest.approx(solve_x_linear(a), abs=1e-12)

    def test_table_row_cross_check(self):
        # at the kappa=1 minimizer the threshold reproduces the class-0 constant
        x = solve_x(0, 1.0, 0.376232)
        assert x == pytest.approx(0.42158, abs=2e-5)
        assert fixed_a_bound(0, 1.0, 0.376232).c_star == pytest.approx(3.802747, abs=TOL)

    def test_increasing_kappa_shrinks_threshold(self):
        for a in (0.2, 1 / 3, 0.4):
            xs = [solve_x(0, k, a) for k in (0.0, 0.3, 0.6, 1.0)]
            assert all(b <= a_ for a_, b in zip(xs, xs[1:]))


class TestThresholdContract:
    KAPPAS = [j / 20 for j in range(21)]
    AS = [j / 100 for j in range(26, 46)]

    @pytest.mark.parametrize("class_index", [0, 1])
    def test_feasible_and_maximal(self, class_index):
        for kappa in self.KAPPAS:
            for a in self.AS:
                x = solve_x(class_index, kappa, a)
                if ratio_bound(class_index, kappa, a, 0.5) <= a + X_CAP_SLACK:
                    assert x == 0.5
                    continue
                assert ratio_bound(class_index, kappa, a, x) <= a
                assert a < ratio_bound(class_index, kappa, a, x + 1e-12)

    def test_cap_is_exact(self):
        # kappa = 0: B(a, 1/2) = (1 - a) / 2, within the slack of a from a = 1/3 up
        for a in (1 / 3, 0.34, 0.5, 0.99):
            for i in (0, 1):
                assert solve_x(i, 0.0, a) == 0.5

    def test_collapse_below_tolerance(self):
        for a in (1e-300, 1e-15, 5e-14):
            for i in (0, 1):
                assert solve_x(i, 0.5, a) == 0.0
        x = solve_x(0, 0.5, 1e-12)
        assert X_BISECTION_TOL <= x <= 1e-12 / (1 - 1e-12)
        assert ratio_bound(0, 0.5, 1e-12, x) <= 1e-12

    def test_extreme_inputs_end(self):
        # the root finder stops on a bracket of a few ulps wherever the root lies
        for kappa in (5e-324, 1e-300, 1e-12, 1.0):
            for a in (1e-300, 1e-13, 0.3, 1 - 1e-16):
                for i in (0, 1):
                    assert 0.0 <= solve_x(i, kappa, a) <= 0.5
            for i in (0, 1):
                r = minimize_c(i, kappa)
                assert 0.0 < r.x_star <= 0.5 and 2.9 < r.c_star < 3.81


class TestPerAConstants:
    def test_kappa_zero_constant(self):
        assert fixed_a_bound(0, 0.0, 1 / 3).c_star == pytest.approx(3.0, abs=1e-12)

    def test_z_plugin(self):
        assert fixed_a_bound(0, 0.0, 1 / 3).z_star(3) == pytest.approx(1 / 9, abs=1e-12)

    def test_half_kappa_class1(self):
        assert fixed_a_bound(1, 0.5, 0.363490).c_star == pytest.approx(3.393730, abs=TOL)

    def test_z_needs_real_degree(self):
        with pytest.raises(DomainError):
            fixed_a_bound(0, 0.0, 1 / 3).z_star(2)

    def test_z_past_float_range(self):
        with pytest.raises(DomainError, match="exceeds the float range"):
            fixed_a_bound(0, 0.5, 0.35).z_star(10**400)
        assert 0.0 < fixed_a_bound(0, 0.5, 0.35).z_star(10**300) < 1e-300

    def test_result_carries_the_given_a(self):
        r = fixed_a_bound(1, Fraction(1, 2), 0.363490)
        assert (r.class_index, r.a_star) == (1, 0.363490)
        assert r.kappa == 0.5 and type(r.kappa) is float
        assert r.x_star == solve_x(1, 0.5, 0.363490)
        assert r.c_star == 1.0 / ((1.0 - 0.363490) * r.x_star)

    def test_threshold_collapse(self):
        with pytest.raises(DomainError, match="threshold x collapsed to zero at a = 1e-15"):
            fixed_a_bound(0, 0.5, 1e-15)

    def test_constant_grows_with_kappa(self):
        for a in (0.3, 0.37):
            cs = [fixed_a_bound(1, k, a).c_star for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(x <= y for x, y in zip(cs, cs[1:]))


class TestMinimization:
    def test_kappa_zero_endpoint(self):
        for i in (0, 1):
            r = minimize_c(i, 0.0)
            assert r.c_star == pytest.approx(3.0, abs=TOL)
            assert r.a_star == pytest.approx(1 / 3, abs=TOL)
            assert r.x_star == pytest.approx(0.5, abs=1e-8)

    def test_kappa_one_class0(self):
        r = minimize_c(0, 1.0)
        assert r.c_star == pytest.approx(3.802747, abs=TOL)
        assert r.a_star == pytest.approx(0.376232, abs=TOL)

    def test_kappa_one_class1(self):
        r = minimize_c(1, 1.0)
        assert r.c_star == pytest.approx(3.595574, abs=TOL)
        assert r.a_star == pytest.approx(0.368292, abs=TOL)

    def test_fixed_point_when_interior(self):
        for i, kappa in [(0, 1.0), (1, 0.5), (1, 1.0)]:
            r = minimize_c(i, kappa)
            assert r.x_star < 0.5
            assert ratio_bound(i, kappa, r.a_star, r.x_star) == pytest.approx(
                r.a_star, abs=1e-9
            )

    @pytest.mark.parametrize("class_index", [0, 1])
    def test_interior_optimum_is_a_maximum(self, class_index):
        # x* maximises x s+(x), so C(a*) is the least of the C(a) around it
        for kappa in [j / 20 for j in range(1, 21)]:
            r = minimize_c(class_index, kappa)
            assert r.x_star < 0.5
            for a in (r.a_star - 1e-4, r.a_star + 1e-4):
                assert fixed_a_bound(class_index, kappa, a).c_star >= r.c_star

    def test_class1_never_above_class0(self):
        for kappa in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert minimize_c(1, kappa).c_star <= minimize_c(0, kappa).c_star + 1e-12

    def test_theorem_range(self):
        assert minimize_c(1, 0.0).c_star <= 3.0 + 1e-6
        assert minimize_c(0, 1.0).c_star <= 3.81

    def test_constant_nondecreasing_in_kappa(self):
        cs = [minimize_c(0, k).c_star for k in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(x <= y + 1e-12 for x, y in zip(cs, cs[1:]))

    def test_result_radii(self):
        r = minimize_c(0, 0.0)
        assert r.disk_radius(3) == pytest.approx(9.0, abs=2e-5)
        assert r.z_star(3) == pytest.approx(1 / 9, abs=1e-6)
        with pytest.raises(DomainError):
            r.disk_radius(2)

    @pytest.mark.parametrize("delta", [2**1023, 10**400], ids=["2**1023", "10**400"])
    def test_radius_past_float_range(self, delta):
        r = minimize_c(0, 0.5)
        for radius in (r.disk_radius, r.z_star):
            with pytest.raises(DomainError, match="exceeds the float range"):
                radius(delta)
        assert r.disk_radius(10**300) == pytest.approx(r.c_star * 1e300)


class TestAgainstNestedSolve:
    KAPPAS = [j / 20 for j in range(21)]

    @pytest.mark.parametrize("class_index", [0, 1])
    def test_matches_nested_route(self, class_index):
        for kappa in self.KAPPAS:
            r = minimize_c(class_index, kappa)
            ref = minimize_c_nested(class_index, kappa)
            assert abs(r.c_star - ref.c_star) <= 1e-6
            assert abs(r.a_star - ref.a_star) <= 1e-6
            assert abs(r.x_star - ref.x_star) <= 1e-6
            # the closed form reaches the infimum the grid only brackets
            assert r.c_star <= ref.c_star + 1e-9

    def test_kappa_zero_exact_endpoint(self):
        for i in (0, 1):
            r = minimize_c(i, 0.0)
            assert r.x_star == 0.5
            assert abs(r.c_star - 3.0) <= 1e-12


class TestTable:
    def test_step_one_has_endpoints(self):
        rows = constants_table(step=1.0)
        assert [r.kappa for r in rows] == [0.0, 1.0]
        assert rows[0].c_class0 == pytest.approx(3.0, abs=TOL)
        assert rows[1].c_class0 == pytest.approx(3.802747, abs=TOL)

    def test_reference_rows_regress(self):
        # spot rows; the acceptance suite recomputes the whole grid
        for j in (3, 7):
            ref = REFERENCE_TABLE[j]
            r0 = minimize_c(0, ref.kappa)
            r1 = minimize_c(1, ref.kappa)
            assert r0.c_star == pytest.approx(ref.c_class0, abs=TOL)
            assert r1.c_star == pytest.approx(ref.c_class1, abs=TOL)
            assert r0.a_star == pytest.approx(ref.a_star0, abs=TOL)
            assert r1.a_star == pytest.approx(ref.a_star1, abs=TOL)

    def test_published_cells(self):
        assert REFERENCE_TABLE[3].c_class0 == 3.377769
        assert REFERENCE_TABLE[3].c_class1 == 3.283304
        assert REFERENCE_TABLE[7].a_star0 == 0.373957
        assert REFERENCE_TABLE[7].a_star1 == 0.365812

    def test_rejects_non_dividing_step(self):
        with pytest.raises(DomainError):
            constants_table(step=0.3)
        with pytest.raises(DomainError):
            constants_table(step=0.0)

    def test_refuses_rows_above_cap(self, monkeypatch):
        calls = []

        def stub(class_index, kappa):
            calls.append(kappa)
            return SimpleNamespace(c_star=3.0, a_star=0.5)

        monkeypatch.setattr(bounds, "minimize_c", stub)
        with pytest.raises(EnumerationCapError) as exc:
            constants_table(step=1e-9)
        assert (exc.value.size, exc.value.cap) == (1_000_000_001, MAX_TABLE_ROWS)
        with pytest.raises(EnumerationCapError) as exc:
            constants_table(step=1 / 10_001)
        assert exc.value.size == 10_002
        assert calls == []
        assert len(constants_table(step=1e-4)) == MAX_TABLE_ROWS == 10_001


class TestKappaConversion:
    def test_fraction_passthrough(self):
        assert kappa_for_bounds(Fraction(1, 2)) == 0.5
        assert kappa_for_bounds(Fraction(0)) == 0.0

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(DomainError):
            kappa_for_bounds(Fraction(3, 2))

    def test_rejects_out_of_range_float(self):
        with pytest.raises(DomainError):
            kappa_for_bounds(-0.1)
