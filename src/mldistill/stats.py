"""Replication statistics: descriptive summaries with 95% confidence
intervals, Welch two-sample t-tests, and one-way ANOVA with eta squared.

The t and F tail probabilities are computed from the regularized
incomplete beta function, evaluated with a modified-Lentz continued
fraction (target accuracy 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from mldistill.errors import DataError, input_lines

SIGNIFICANCE_LEVEL = 0.05

_EPS = 1e-15
_FPMIN = 1e-300
_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    )
    bt = math.exp(log_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t: float, df: float) -> float:
    """Two-sided tail probability of Student's t."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return betainc(df / 2.0, 0.5, df / (df + t * t))


def t_cdf(t: float, df: float) -> float:
    if t == 0.0:
        return 0.5
    p = t_two_sided_p(t, df)
    return 1.0 - p / 2.0 if t > 0 else p / 2.0


def t_quantile(q: float, df: float) -> float:
    """Inverse CDF by bisection (q in (0.5, 1))."""
    if not 0.5 < q < 1.0:
        raise ValueError("quantile only implemented for q in (0.5, 1)")
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < q:
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("t quantile bisection failed to bracket")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < q:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def f_sf(f: float, df_num: float, df_den: float) -> float:
    """Survival function of the F distribution."""
    if df_num <= 0 or df_den <= 0:
        raise ValueError("degrees of freedom must be positive")
    if math.isinf(f):
        return 0.0
    if f <= 0.0:
        return 1.0
    return betainc(df_den / 2.0, df_num / 2.0, df_den / (df_den + df_num * f))


# ---------------------------------------------------------------------------
# Descriptive statistics and tests
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescribeResult:
    mean: float
    sd: float | None
    min: float
    max: float
    ci_low: float | None
    ci_high: float | None
    n: int


@dataclass(frozen=True)
class TTestResult:
    mean_difference: float
    t_statistic: float
    p_value: float
    significant: bool


@dataclass(frozen=True)
class AnovaResult:
    f_statistic: float
    p_value: float
    eta_squared: float
    df_between: int
    df_within: int


def _mean(xs: list[float]) -> float:
    return sum(xs) / len(xs)


def _sample_var(xs: list[float], mean: float) -> float:
    return sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def describe(scores: list[float]) -> DescribeResult:
    """Mean, sample standard deviation, range, and the 95% CI
    mean +- t_{0.975, n-1} * sd / sqrt(n).  The CI needs n >= 2."""
    if not scores:
        raise ValueError("describe needs at least one score")
    n = len(scores)
    mean = _mean(scores)
    if n == 1:
        return DescribeResult(mean=mean, sd=None, min=scores[0], max=scores[0], ci_low=None, ci_high=None, n=1)
    sd = math.sqrt(_sample_var(scores, mean))
    half = t_quantile(0.975, n - 1) * sd / math.sqrt(n)
    return DescribeResult(
        mean=mean, sd=sd, min=min(scores), max=max(scores), ci_low=mean - half, ci_high=mean + half, n=n
    )


def t_test(a: list[float], b: list[float], equal_var: bool = False) -> TTestResult:
    """Two-sample t-test, Welch by default (pooled with equal_var=True).

    Two zero-variance samples yield t = 0, p = 1 when the means agree
    and an infinite-t sentinel with p = 0 when they differ.
    """
    if len(a) < 2 or len(b) < 2:
        raise ValueError("t-test needs at least two scores per sample")
    mean_a, mean_b = _mean(a), _mean(b)
    var_a, var_b = _sample_var(a, mean_a), _sample_var(b, mean_b)
    diff = mean_a - mean_b
    na, nb = len(a), len(b)

    if equal_var:
        df: float = na + nb - 2
        pooled = ((na - 1) * var_a + (nb - 1) * var_b) / df
        se = math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    else:
        qa, qb = var_a / na, var_b / nb
        se = math.sqrt(qa + qb)
        if qa + qb > 0:
            df = (qa + qb) ** 2 / (qa * qa / (na - 1) + qb * qb / (nb - 1))
        else:
            df = na + nb - 2

    if se == 0.0:
        if diff == 0.0:
            return TTestResult(mean_difference=0.0, t_statistic=0.0, p_value=1.0, significant=False)
        t = math.inf if diff > 0 else -math.inf
        return TTestResult(mean_difference=diff, t_statistic=t, p_value=0.0, significant=True)

    t = diff / se
    p = t_two_sided_p(t, df)
    return TTestResult(mean_difference=diff, t_statistic=t, p_value=p, significant=p < SIGNIFICANCE_LEVEL)


def anova(groups: list[list[float]]) -> AnovaResult:
    """One-way ANOVA over two or more groups.

    Zero within-group variance with distinct group means yields the
    infinite-F sentinel with p = 0 and eta squared exactly 1.
    """
    if len(groups) < 2:
        raise ValueError("ANOVA needs at least two groups")
    if any(not g for g in groups):
        raise ValueError("ANOVA groups must be non-empty")
    n_total = sum(len(g) for g in groups)
    k = len(groups)
    if n_total <= k:
        raise ValueError("ANOVA needs more scores than groups")

    grand = sum(sum(g) for g in groups) / n_total
    means = [_mean(g) for g in groups]
    ss_between = sum(len(g) * (m - grand) ** 2 for g, m in zip(groups, means))
    ss_within = sum(sum((x - m) ** 2 for x in g) for g, m in zip(groups, means))
    df_between = k - 1
    df_within = n_total - k

    if ss_between == 0.0:
        return AnovaResult(0.0, 1.0, 0.0, df_between, df_within)
    if ss_within == 0.0:
        return AnovaResult(math.inf, 0.0, 1.0, df_between, df_within)
    f = (ss_between / df_between) / (ss_within / df_within)
    return AnovaResult(f, f_sf(f, df_between, df_within), ss_between / (ss_between + ss_within), df_between, df_within)


# ---------------------------------------------------------------------------
# Replication files and the stats report
# ---------------------------------------------------------------------------


def interval_self_check() -> None:
    """Sanity anchor for the CI machinery: five replications with mean
    0.8270 and sample sd 0.0089 must give the 95% interval
    [0.8159, 0.8380] to 1e-4 (the t quantile at 4 df is 2.7764)."""
    base = [-2.0, -1.0, 0.0, 1.0, 2.0]
    scale = 0.0089 / math.sqrt(sum(x * x for x in base) / (len(base) - 1))
    d = describe([0.8270 + scale * x for x in base])
    if d.ci_low is None or abs(d.ci_low - 0.8159) > 1e-4 or abs(d.ci_high - 0.8380) > 1e-4:
        raise ArithmeticError("confidence-interval self-check failed")


def read_replications(path: str | Path) -> dict[str, list[float]]:
    """One score per line: everything before the final whitespace run is
    the approach name, the last token is the score."""
    groups: dict[str, list[float]] = {}
    for lineno, line in input_lines(path):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        parts = text.rsplit(None, 1)
        if len(parts) != 2:
            raise DataError(f"line {lineno}: expected '<approach> <score>'")
        name, raw = parts
        try:
            score = float(raw)
        except ValueError as exc:
            raise DataError(f"line {lineno}: score {raw!r} is not a number") from exc
        if not math.isfinite(score):
            raise DataError(f"line {lineno}: score {raw!r} is not a finite number")
        groups.setdefault(name, []).append(score)
    if not groups:
        raise DataError("replication file contains no scores")
    return groups


def _pct(x: float | None) -> str:
    return "-" if x is None else f"{100.0 * x:.2f}%"


def _full(x: float | None) -> str:
    return "-" if x is None else repr(float(x))


def render_stats_report(groups: dict[str, list[float]], meta: dict | None = None) -> str:
    """Text report: descriptive table, pairwise t-tests against the
    best-mean approach (both subtraction orders), and one-way ANOVA."""
    lines: list[str] = ["# replication statistics"]
    if meta:
        for key in sorted(meta):
            lines.append(f"# {key}: {meta[key]}")
    lines.append("")

    described = {name: describe(scores) for name, scores in groups.items()}

    lines.append("[descriptive]")
    lines.append("approach\tn\tmean\tstd_dev\tmin\tmax\tci95_lower\tci95_upper")
    for name, d in described.items():
        lines.append(
            f"{name}\t{d.n}\t{_pct(d.mean)}\t{_pct(d.sd)}\t{_pct(d.min)}\t{_pct(d.max)}"
            f"\t{_pct(d.ci_low)}\t{_pct(d.ci_high)}"
        )
    lines.append("")
    lines.append("[descriptive.full_precision]")
    for name, d in described.items():
        lines.append(
            f"{name}\tmean={_full(d.mean)}\tsd={_full(d.sd)}\tmin={_full(d.min)}\tmax={_full(d.max)}"
            f"\tci=[{_full(d.ci_low)}, {_full(d.ci_high)}]"
        )

    eligible = {name: scores for name, scores in groups.items() if len(scores) >= 2}
    if len(eligible) >= 2:
        reference = max(eligible, key=lambda name: described[name].mean)
        lines.append("")
        lines.append(f"[t_tests] reference = {reference} (highest mean); Welch, two-sided")
        lines.append("approach\tmean_diff(approach-ref)\tt(approach-ref)\tt(ref-approach)\tp_value\tsignificant")
        for name, scores in eligible.items():
            if name == reference:
                continue
            result = t_test(scores, eligible[reference])
            lines.append(
                f"{name}\t{result.mean_difference:.6f}\t{result.t_statistic:.6f}"
                f"\t{-result.t_statistic:.6f}\t{result.p_value:.6f}\t{result.significant}"
            )

    if len(groups) >= 2 and sum(len(g) for g in groups.values()) > len(groups):
        result = anova(list(groups.values()))
        lines.append("")
        lines.append("[anova]")
        lines.append(f"f_statistic\t{result.f_statistic:.6f}")
        lines.append(f"p_value\t{result.p_value:.6f}")
        lines.append(f"eta_squared\t{result.eta_squared:.6f}")
        lines.append(f"df_between\t{result.df_between}")
        lines.append(f"df_within\t{result.df_within}")

    return "\n".join(lines) + "\n"
