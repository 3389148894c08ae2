"""Super-population laws and finite population generation.

A finite population is its read-only array ``y`` of the responses of its
``N = y.size`` units, drawn i.i.d. from a super-population law, for which
the exact distribution function, density, generalized inverse and poverty
rate are available in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .streams import substream

_QUANTILE_EPS = 1e-12
#: the largest quantile level below one, 1 - 2**-53
_LAST_LEVEL = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class SuperPopulationLaw:
    """Distribution of the response values.

    Three kinds are supported:

    * ``exponential`` with rate parameter ``rate > 0``,
    * ``uniform01``, the uniform distribution on [0, 1),
    * ``discrete`` with atoms at finite, strictly increasing ``points``
      carrying finite nonnegative ``masses`` that sum to one (within 1e-12).
    """

    kind: str
    rate: float = 1.0
    points: tuple[float, ...] = ()
    masses: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "exponential":
            # every quantile -log1p(-a)/rate, a < 1, must be finite, and the
            # density rate (1 - a) there positive, up to the last a below one
            top = -math.log1p(-_LAST_LEVEL)
            if not (np.isfinite(self.rate) and self.rate > 0
                    and math.isfinite(top / self.rate) and self.rate * (1.0 - _LAST_LEVEL) > 0.0):
                raise ParameterError(
                    f"exponential rate must be positive, with every quantile finite "
                    f"and every density there positive, got {self.rate}")
        elif self.kind == "discrete":
            pts = np.asarray(self.points, dtype=float)
            mas = np.asarray(self.masses, dtype=float)
            if pts.size == 0 or pts.size != mas.size:
                raise ParameterError("discrete law needs equally many points and masses")
            if not (np.isfinite(pts).all() and np.isfinite(mas).all()):
                raise ParameterError("discrete points and masses must be finite")
            if np.any(np.diff(pts) <= 0):
                raise ParameterError("discrete points must be strictly increasing")
            if np.any(mas < 0) or abs(mas.sum() - 1.0) > 1e-12:
                raise ParameterError("discrete masses must be nonnegative and sum to one")
        elif self.kind != "uniform01":
            raise ParameterError(f"unknown law kind {self.kind!r}")

    @classmethod
    def exponential(cls, rate: float = 1.0) -> "SuperPopulationLaw":
        return cls(kind="exponential", rate=rate)

    @classmethod
    def uniform01(cls) -> "SuperPopulationLaw":
        return cls(kind="uniform01")

    @classmethod
    def discrete(cls, points, masses) -> "SuperPopulationLaw":
        return cls(kind="discrete", points=tuple(float(p) for p in points),
                   masses=tuple(float(m) for m in masses))


def generate_population(law: SuperPopulationLaw, N: int, seed: int) -> np.ndarray:
    """Draw a population of ``N`` i.i.d. responses from ``law``: a read-only
    array of shape ``(N,)``, as draws gather from it and nothing may write it.

    Bitwise reproducible for fixed ``(law, N, seed)``.  Unequal-probability
    designs receive their inclusion probabilities directly, not from a
    design variable of the population.
    """
    if N < 1:
        raise ParameterError("population size must be at least 1")
    rng = substream(seed)
    if law.kind == "exponential":
        y = rng.exponential(scale=1.0 / law.rate, size=N)
    elif law.kind == "uniform01":
        y = rng.random(N)
    else:
        pts = np.asarray(law.points, dtype=float)
        idx = rng.choice(pts.size, size=N, p=np.asarray(law.masses, dtype=float))
        y = pts[idx]
    y.setflags(write=False)
    return y


def true_cdf(law: SuperPopulationLaw, t):
    """Distribution function F(t); vectorized, right-continuous."""
    t_arr = np.asarray(t, dtype=float)
    if law.kind == "exponential":
        out = np.where(t_arr < 0.0, 0.0, -np.expm1(-law.rate * np.maximum(t_arr, 0.0)))
    elif law.kind == "uniform01":
        out = np.clip(t_arr, 0.0, 1.0)
    else:
        pts = np.asarray(law.points, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(law.masses)])
        cum[-1] = 1.0
        out = cum[np.searchsorted(pts, t_arr, side="right")]
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def true_density(law: SuperPopulationLaw, t):
    """Lebesgue density f(t) for continuous laws; vectorized."""
    t_arr = np.asarray(t, dtype=float)
    if law.kind == "exponential":
        out = np.where(t_arr < 0.0, 0.0, law.rate * np.exp(-law.rate * np.maximum(t_arr, 0.0)))
    elif law.kind == "uniform01":
        out = np.where((t_arr >= 0.0) & (t_arr < 1.0), 1.0, 0.0)
    else:
        raise ParameterError("discrete laws have no Lebesgue density")
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def true_quantile(law: SuperPopulationLaw, alpha: float) -> float:
    """Generalized inverse F^{-1}(alpha) = inf{t : F(t) >= alpha}."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"quantile level must lie in (0, 1), got {alpha}")
    if law.kind == "exponential":
        return float(-np.log1p(-alpha) / law.rate)
    if law.kind == "uniform01":
        return float(alpha)
    cum = np.cumsum(law.masses)
    cum[-1] = 1.0
    idx = int(np.searchsorted(cum, alpha - _QUANTILE_EPS, side="left"))
    return float(law.points[idx])


def true_poverty_rate(law: SuperPopulationLaw, alpha: float, beta: float) -> float:
    """Fraction of the population below ``beta`` times the alpha-quantile.

    Evaluates F(beta * F^{-1}(alpha)); for the exponential law this equals
    1 - (1 - alpha)**beta for every rate.
    """
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"scale beta must lie in (0, 1], got {beta}")
    q = true_quantile(law, alpha)
    return float(true_cdf(law, beta * q))
