"""Float bound evaluators: regimes, the min-form, companion expressions.

Fixture values were computed independently at 50-digit precision and frozen
here; the library must reproduce them to 1e-12 relative.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from ddlab import (
    Regime,
    TooLargeError,
    clamped_log,
    distinct_lower_bound,
    energy_upper_expr,
    incidence_upper_bound,
    regime,
)

REL = 1e-12


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL, abs_tol=0.0)


class TestClampedLog:
    def test_natural(self):
        assert clamped_log(1.0) == 1.0
        assert clamped_log(2.0) == 1.0  # ln 2 < 1 clamps
        assert close(clamped_log(100.0), math.log(100.0))

    def test_base_two(self):
        assert clamped_log(2.0, "log2-clamped") == 1.0
        assert close(clamped_log(8.0, "log2-clamped"), 3.0)

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            clamped_log(5.0, "log10")


class TestRegime:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (1, 1, Regime.R1),
            (100, 5, Regime.R1),
            (100, 10, Regime.R1),   # m = sqrt(n) boundary stays R1
            (100, 11, Regime.R2),
            (100, 15, Regime.R2),   # threshold is 15.924...
            (100, 16, Regime.R3),
            (100, 10**6, Regime.R3),  # m = n^3 boundary stays R3
            (100, 10**7, Regime.R4),
        ],
    )
    def test_fixtures(self, n, m, expected):
        assert regime(n, m) is expected

    def test_partition_on_grid(self):
        for n in range(1, 51):
            labels = [regime(n, m) for m in range(1, 51)]
            assert all(isinstance(lab, Regime) for lab in labels)
            # walking m upward never moves to an earlier regime
            order = [list(Regime).index(lab) for lab in labels]
            assert order == sorted(order)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            regime(0, 1)


class TestDistinctLowerBound:
    def test_fixture_1_1(self):
        rep = distinct_lower_bound(1, 1)
        assert rep.regime is Regime.R1
        for value in (rep.term_m_sq, rep.term_two_thirds, rep.term_log, rep.term_n_sq,
                      rep.min_value, rep.piecewise_value):
            assert value == 1.0

    def test_fixture_100_5(self):
        rep = distinct_lower_bound(100, 5)
        assert rep.regime is Regime.R1
        assert rep.min_value == 25.0 and rep.piecewise_value == 25.0
        assert close(rep.term_two_thirds, 62.99605249474366)
        assert close(rep.term_log, 108.33669850143748)
        assert rep.term_n_sq == 10000.0

    def test_fixture_100_1e7(self):
        rep = distinct_lower_bound(100, 10**7)
        assert rep.regime is Regime.R4
        assert rep.min_value == 10000.0 and rep.piecewise_value == 10000.0
        assert rep.term_m_sq == 1.0e14
        assert close(rep.term_two_thirds, 1000000.0)
        assert close(rep.term_log, 13935.571265672264)

    def test_log2_convention_changes_logterm(self):
        rep = distinct_lower_bound(100, 5, "log2-clamped")
        assert close(rep.term_log, 101.35257133667804)
        assert rep.min_value == 25.0

    def test_min_below_squares_on_grid(self):
        for n in range(1, 51):
            for m in range(1, 51):
                rep = distinct_lower_bound(n, m)
                assert rep.min_value <= min(n * n, m * m) + 1e-9
                assert close(
                    rep.piecewise_value,
                    {
                        Regime.R1: rep.term_m_sq,
                        Regime.R2: rep.term_two_thirds,
                        Regime.R3: rep.term_log,
                        Regime.R4: rep.term_n_sq,
                    }[rep.regime],
                )

    def test_monotone_for_n_and_m(self):
        for m in (2, 5, 17):
            values = [distinct_lower_bound(n, m).min_value for n in range(2, 120)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        for n in (2, 9, 40):
            values = [distinct_lower_bound(n, m).min_value for m in range(2, 120)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_deep_r1_interior_min_is_m_sq(self):
        for n in (16, 100, 400, 2025):
            for m in range(1, int(math.sqrt(n) / 2) + 1):
                rep = distinct_lower_bound(n, m)
                assert rep.min_value == rep.term_m_sq

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="n and m must be positive"):
            distinct_lower_bound(0, 3)

    def test_json_shape(self):
        d = distinct_lower_bound(100, 5).to_json_dict()
        assert set(d) == {"n", "m", "regime", "terms", "min", "piecewise"}
        assert set(d["terms"]) == {"m2", "n23m23", "logterm", "n2"}
        assert d["regime"] == "R1"


class TestCompanionExpressions:
    def test_unit_values(self):
        assert incidence_upper_bound(1, 1) == 4.0
        assert energy_upper_expr(1, 1) == 4.0

    def test_frozen_values(self):
        assert close(incidence_upper_bound(9, 16), 91.03958776244694)
        assert close(incidence_upper_bound(9, 16, "log2-clamped"), 93.6971716717015)
        assert close(energy_upper_expr(20, 30), 14932.420899933066)
        assert close(energy_upper_expr(20, 30, "log2-clamped"), 15523.09871306434)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            incidence_upper_bound(0, 5)
        with pytest.raises(ValueError):
            energy_upper_expr(5, 0)


class TestFloatRange:
    """Past float range the evaluators raise TooLargeError, never OverflowError or inf."""

    def test_overflowing_square(self):
        with pytest.raises(TooLargeError):
            distinct_lower_bound(3, 10**155)

    def test_overflowing_regime_cut(self):
        # m is past n^0.8, so the R3 cut needs n^3, about 1e309
        with pytest.raises(TooLargeError):
            regime(10**103, 10**90)

    def test_infinite_product(self):
        # each factor is finite, their product is not
        with pytest.raises(TooLargeError):
            energy_upper_expr(10**120, 10**120)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 10**400) | st.integers(1, 10**6),
        st.integers(1, 10**400) | st.integers(1, 10**6),
        st.sampled_from(("ln-clamped", "log2-clamped")),
    )
    def test_finite_or_too_large(self, n, m, log_convention):
        evaluators = (
            lambda: distinct_lower_bound(n, m, log_convention).to_json_dict(),
            lambda: energy_upper_expr(n, m, log_convention),
            lambda: incidence_upper_bound(n, m, log_convention),
        )
        for evaluate in evaluators:
            try:
                value = evaluate()
            except TooLargeError:
                continue
            if isinstance(value, dict):
                value = [value["min"], value["piecewise"], *value["terms"].values()]
            else:
                value = [value]
            assert all(math.isfinite(v) for v in value)
