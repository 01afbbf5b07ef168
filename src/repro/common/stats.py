"""Statistics used by the beam and fault-injection analyses.

The paper reports beam FIT rates with 95% confidence intervals under a
Poisson counting model (§VI) and sizes its injection campaigns so that the
95% interval on the AVF stays below 5% (§III-D).  Both interval constructions
live here so every subsystem reports uncertainty the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Tuple


def poisson_ci(count: float, confidence: float = 0.95) -> Tuple[float, float]:
    """Exact (Garwood) two-sided confidence interval for a Poisson mean.

    Returns the (lower, upper) bounds on the expected count given an observed
    ``count``: the ``alpha/2`` quantile of Gamma(count) and the
    ``1 - alpha/2`` quantile of Gamma(count + 1), i.e. ``chi2.ppf`` at 2n and
    2n + 2 degrees of freedom, halved.  ``count`` may be real-valued (thinned
    beam counts are); for count == 0 the lower bound is 0.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    alpha = 1.0 - confidence
    if not 0 < alpha < 1:
        raise ValueError("confidence must be in (0, 1)")
    lower = 0.0 if count == 0 else _gamma_quantile(count, alpha / 2.0)
    upper = _gamma_quantile(count + 1.0, 1.0 - alpha / 2.0)
    return lower, upper


def _regularized_gamma_p(a: float, x: float) -> float:
    """P(a, x) = γ(a, x) / Γ(a), the regularized lower incomplete gamma.

    Power series below ``x = a + 1``, Lentz's continued fraction for the
    complement above it — each converges quickly on its side.
    """
    if x <= 0.0:
        return 0.0
    log_prefix = a * math.log(x) - x - math.lgamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while abs(term) > abs(total) * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return total * math.exp(log_prefix)
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 1.0 - math.exp(log_prefix) * h


def _gamma_quantile(a: float, p: float) -> float:
    """The x with P(a, x) = p, by bisection (P is increasing in x).

    Each step first tries a Newton step on the gamma density and falls
    back to the bracket's midpoint when that step leaves the bracket, so
    the bracket always holds the root and the smooth case converges in a
    handful of evaluations.
    """
    lo, hi = 0.0, max(1.0, a)
    while _regularized_gamma_p(a, hi) < p:
        lo, hi = hi, 2.0 * hi
    x = 0.5 * (lo + hi)
    if lo == 0.0:
        # deep in the lower tail P(a, x) ~ x**a / Γ(a + 1): start there, so
        # tiny counts do not bisect down through hundreds of binades
        log_start = (math.log(p) + math.lgamma(a + 1.0)) / a
        if log_start < math.log(x):
            x = math.exp(log_start)
            if x == 0.0:
                return 0.0  # the root lies below the smallest float
    log_norm = math.lgamma(a)
    for _ in range(200):
        excess = _regularized_gamma_p(a, x) - p
        if excess < 0.0:
            lo = x
        else:
            hi = x
        # capped: for a < 1 the density diverges at 0, and a smaller
        # density only lengthens the step the bracket then clips
        density = math.exp(min((a - 1.0) * math.log(x) - x - log_norm, 700.0))
        step = x - excess / density if density > 0.0 else lo
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(nxt - x) <= 1e-15 * nxt or hi - lo <= 1e-15 * hi:
            return nxt
        x = nxt
    return x


def wilson_ci(successes: int, trials: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (used for AVFs)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = _z_value(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for ``confidence``."""
    return NormalDist().inv_cdf(1.0 - (1.0 - confidence) / 2.0)


def ratio(measured: float, predicted: float) -> float:
    """measured / predicted, guarding against a zero prediction."""
    if predicted <= 0:
        return math.inf if measured > 0 else 1.0
    return measured / predicted


def signed_ratio(measured: float, predicted: float) -> float:
    """The paper's Figure 6 convention.

    Positive: beam measured a FIT *higher* than predicted (ratio >= 1 plotted
    as +measured/predicted).  Negative: prediction was higher, plotted as
    -predicted/measured.  By construction |signed_ratio| >= 1.
    """
    r = ratio(measured, predicted)
    if r >= 1.0:
        return r
    if r <= 0.0:
        return -math.inf
    return -1.0 / r


@dataclass(frozen=True)
class Estimate:
    """A point estimate plus a 95% confidence interval."""

    value: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.value <= self.upper) and not math.isnan(self.value):
            raise ValueError(f"interval [{self.lower}, {self.upper}] does not contain {self.value}")

    def scaled(self, factor: float) -> "Estimate":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Estimate(self.value * factor, self.lower * factor, self.upper * factor)

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0


def poisson_rate_estimate(count: float, exposure: float, confidence: float = 0.95) -> Estimate:
    """Estimate of a Poisson rate = count/exposure with its interval."""
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    lo, hi = poisson_ci(count, confidence)
    return Estimate(count / exposure, lo / exposure, hi / exposure)


def proportion_estimate(successes: int, trials: int, confidence: float = 0.95) -> Estimate:
    """Estimate of a binomial proportion with its Wilson interval."""
    lo, hi = wilson_ci(successes, trials, confidence)
    p = successes / trials
    # Wilson centers can exclude extreme MLEs at tiny n; clamp for safety.
    return Estimate(min(max(p, lo), hi), lo, hi)
