"""Statistics against closed forms and a numerical-integration oracle."""

import math

import numpy as np
import pytest
from scipy import integrate

from mldistill.errors import DataError
from mldistill.stats import (
    anova,
    betainc,
    describe,
    f_sf,
    interval_self_check,
    read_replications,
    render_stats_report,
    t_quantile,
    t_test,
    t_two_sided_p,
)


def t_pdf(x, df):
    c = math.gamma((df + 1) / 2) / (math.sqrt(df * math.pi) * math.gamma(df / 2))
    return c * (1 + x * x / df) ** (-(df + 1) / 2)


def f_pdf(x, d1, d2):
    if x <= 0:
        return 0.0
    log_num = (d1 / 2) * math.log(d1 / d2) + (d1 / 2 - 1) * math.log(x)
    log_den = ((d1 + d2) / 2) * math.log1p(d1 * x / d2)
    log_beta = math.lgamma(d1 / 2) + math.lgamma(d2 / 2) - math.lgamma((d1 + d2) / 2)
    return math.exp(log_num - log_den - log_beta)


def t_sf_oracle(t, df):
    value, _ = integrate.quad(t_pdf, t, np.inf, args=(df,))
    return value


def f_sf_oracle(f, d1, d2):
    value, _ = integrate.quad(f_pdf, f, np.inf, args=(d1, d2), limit=200)
    return value


class TestDescribe:
    def test_textbook_values(self):
        d = describe([1.0, 2.0, 3.0])
        assert d.mean == 2.0
        assert d.sd == pytest.approx(1.0, abs=1e-12)
        assert (d.min, d.max) == (1.0, 3.0)

    def test_reproduces_published_interval_shape(self):
        # five scores with mean 0.8270 and sample sd 0.0089
        base = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        scores = list(0.8270 + 0.0089 * base / base.std(ddof=1))
        d = describe(scores)
        assert d.mean == pytest.approx(0.8270, abs=1e-12)
        assert d.sd == pytest.approx(0.0089, abs=1e-12)
        assert d.ci_low == pytest.approx(0.8159, abs=1e-4)
        assert d.ci_high == pytest.approx(0.8380, abs=1e-4)

    def test_zero_variance_degenerate_interval(self):
        d = describe([0.5, 0.5, 0.5])
        assert d.sd == 0.0
        assert d.ci_low == d.ci_high == 0.5

    def test_single_score_has_no_interval(self):
        d = describe([0.9])
        assert d.sd is None and d.ci_low is None and d.ci_high is None

    def test_interval_symmetric_and_widens_with_sd(self):
        narrow = describe([0.5, 0.51, 0.49, 0.5])
        wide = describe([0.5, 0.6, 0.4, 0.5])
        assert narrow.mean - narrow.ci_low == pytest.approx(narrow.ci_high - narrow.mean, abs=1e-12)
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe([])


class TestTQuantile:
    def test_known_value_df4(self):
        assert t_quantile(0.975, 4) == pytest.approx(2.776445105197, abs=1e-9)

    def test_round_trips_through_p(self):
        for df in (1, 3, 10, 30):
            t = t_quantile(0.975, df)
            assert t_two_sided_p(t, df) == pytest.approx(0.05, abs=1e-9)


class TestTTest:
    def test_identical_samples(self):
        r = t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert (r.mean_difference, r.t_statistic, r.p_value, r.significant) == (0.0, 0.0, 1.0, False)

    def test_derived_example(self):
        r = t_test([1.0, 2.0, 3.0, 4.0, 5.0], [2.0, 3.0, 4.0, 5.0, 6.0])
        assert r.mean_difference == pytest.approx(-1.0, abs=1e-12)
        assert r.t_statistic == pytest.approx(-1.0, abs=1e-12)
        assert r.p_value == pytest.approx(t_sf_oracle(1.0, 8) * 2, abs=1e-6)
        assert r.p_value == pytest.approx(0.347, abs=5e-4)

    def test_zero_variance_sentinels(self):
        equal = t_test([0.2870, 0.2870], [0.2870, 0.2870])
        assert (equal.t_statistic, equal.p_value) == (0.0, 1.0)
        apart = t_test([0.5, 0.5], [0.3, 0.3])
        assert apart.t_statistic == math.inf and apart.p_value == 0.0 and apart.significant
        below = t_test([0.1, 0.1], [0.3, 0.3])
        assert below.t_statistic == -math.inf

    def test_one_sided_variance_still_finite(self):
        r = t_test([0.5, 0.5, 0.5], [0.1, 0.2, 0.3])
        assert math.isfinite(r.t_statistic)

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            a = list(rng.normal(size=5))
            b = list(rng.normal(size=7))
            ab = t_test(a, b)
            ba = t_test(b, a)
            assert ab.t_statistic == pytest.approx(-ba.t_statistic, abs=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_sample_size_validation(self):
        with pytest.raises(ValueError):
            t_test([1.0], [1.0, 2.0])


class TestAnova:
    def test_perfect_separation(self):
        r = anova([[0.0, 0.0], [1.0, 1.0]])
        assert r.f_statistic == math.inf
        assert r.p_value == 0.0
        assert r.eta_squared == 1.0

    def test_identical_groups(self):
        r = anova([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert r.f_statistic == 0.0
        assert r.eta_squared == 0.0
        assert r.p_value == 1.0

    def test_hand_computed_sums_of_squares(self):
        r = anova([[1.0, 2.0, 3.0], [2.0, 3.0, 4.0], [3.0, 4.0, 5.0]])
        assert r.f_statistic == pytest.approx(3.0, abs=1e-12)
        assert r.eta_squared == pytest.approx(0.5, abs=1e-12)
        assert r.p_value == pytest.approx(f_sf_oracle(3.0, 2, 6), abs=1e-9)

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        groups = [list(rng.normal(size=4)) for _ in range(3)]
        shifted = [[x + 17.25 for x in g] for g in groups]
        a, b = anova(groups), anova(shifted)
        assert a.f_statistic == pytest.approx(b.f_statistic, rel=1e-9)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-9)
        assert a.eta_squared == pytest.approx(b.eta_squared, rel=1e-9)

    def test_eta_squared_in_unit_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            groups = [list(rng.normal(loc=rng.normal(), size=int(rng.integers(2, 6)))) for _ in range(3)]
            r = anova(groups)
            assert 0.0 <= r.eta_squared <= 1.0

    def test_overflowing_grand_sum_raises(self):
        # every group's sum is finite, but their total is not: equal groups
        # must not read as an infinite F
        with pytest.raises(OverflowError):
            anova([[8e307, 8e307], [8e307, 8e307]])

    def test_validation(self):
        with pytest.raises(ValueError):
            anova([[1.0, 2.0]])
        with pytest.raises(ValueError):
            anova([[1.0], [2.0]])


class TestDistributionOracle:
    def test_t_pvalues_match_integration(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            t = float(rng.uniform(0.05, 6.0))
            df = int(rng.integers(1, 40))
            assert t_two_sided_p(t, df) == pytest.approx(2 * t_sf_oracle(t, df), abs=1e-6)

    def test_f_pvalues_match_integration(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            f = float(rng.uniform(0.05, 8.0))
            d1 = int(rng.integers(1, 12))
            d2 = int(rng.integers(2, 40))
            assert f_sf(f, d1, d2) == pytest.approx(f_sf_oracle(f, d1, d2), abs=1e-6)

    def test_betainc_bounds(self):
        assert betainc(2.0, 3.0, 0.0) == 0.0
        assert betainc(2.0, 3.0, 1.0) == 1.0


class TestReplicationFile:
    def test_reads_names_with_spaces(self, tmp_path):
        path = tmp_path / "reps.txt"
        path.write_text("Traditional ML 0.7658\nTraditional ML 0.7600\nOther 0.5\n# comment\n", encoding="utf-8")
        groups = read_replications(path)
        assert groups == {"Traditional ML": [0.7658, 0.76], "Other": [0.5]}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "reps.txt"
        path.write_text("OnlyName\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 0"):
            read_replications(path)

    def test_report_sections(self, tmp_path):
        groups = {
            "A": [0.8, 0.82, 0.81],
            "B": [0.7, 0.71, 0.72],
        }
        text = render_stats_report(groups)
        assert "[descriptive]" in text
        assert "[t_tests]" in text and "reference = A" in text
        assert "[anova]" in text
        assert "80.00%" in text  # percentage formatting

    def test_single_approach_descriptive_only(self):
        text = render_stats_report({"A": [0.8, 0.81]})
        assert "[descriptive]" in text
        assert "[t_tests]" not in text
        assert "[anova]" not in text

    def test_zero_variance_groups_eta_one(self):
        text = render_stats_report({"A": [0.0, 0.0], "B": [1.0, 1.0]})
        assert "eta_squared\t1.000000" in text

    def test_interval_self_check_passes(self):
        interval_self_check()
