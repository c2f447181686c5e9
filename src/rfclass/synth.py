"""Synthetic reservoir databases with controllable distribution shapes.

One preset table, `_PRESETS`, stands in for the source databases at desk
scale. A row per source gives its missing rate and RF clip and, per unit of
divergence, its feature shifts and scales, offsets to the RF link's median,
spread and noise, and an admixture to the base quality weights; divergence 0
collapses all three onto the base recipe. TORIS has the most missing cells;
Commercial sits near it on other axes than Atlas, which is narrower in
porosity and permeability and shifted elsewhere. RF comes from a noisy
monotone link on a latent quality driven chiefly by reserves, area,
thickness and permeability: a known ground truth for attribution.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dataset import Database, DatabaseTag, canonical_schema


@dataclass(frozen=True)
class FeatureDistribution:
    """Sampling recipe for one feature.

    family: "lognormal" (params mu, sigma in log space), "normal"
    (mu, sigma), or "beta" (a, b, lo, hi). shift/scale are the
    inter-database divergence knobs applied to the sampled value before
    rounding; clip bounds keep values inside the mimicked published range.
    """

    family: str
    params: tuple[float, ...]
    missing_rate: float = 0.0
    decimals: int = 4
    clip: tuple[float, float] = (-math.inf, math.inf)
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.family not in ("lognormal", "normal", "beta"):
            raise ValueError(f"unknown distribution family {self.family!r}")
        if not 0 <= self.missing_rate < 1:
            raise ValueError("missing_rate must lie in [0, 1)")
        if self.clip[0] >= self.clip[1]:
            raise ValueError("clip range must be increasing")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.family == "beta":
            a, b, lo, hi = self.params
            values = lo + (hi - lo) * rng.beta(a, b, size=n)
        else:
            mu, sigma = self.params
            values = rng.normal(mu, sigma, size=n)
            if self.family == "lognormal":
                values = np.exp(values)
        return np.clip(np.round(values * self.scale + self.shift, self.decimals), *self.clip)


# The chief drivers of latent quality; presets perturb them and add minor ones.
_BASE_WEIGHTS = {"reserves": 0.35, "area": 0.25, "thickness": 0.20, "permeability": 0.20}


@dataclass(frozen=True)
class RFLink:
    """Noisy monotone map from latent quality to the recovery factor.

    quality is a weighted sum of standardized feature values, the size and
    flow features of _LOG_FEATURES taken as logs; rf = median * exp(spread *
    (quality + noise)), rounded and clipped, which yields a right-skewed
    marginal. Standardization uses the generated sample's own mean/std per
    feature, so the link knobs stay meaningful under any feature-space
    divergence.
    """

    median: float = 0.33
    spread: float = 0.5
    noise_sigma: float = 0.6
    weights: dict[str, float] = field(default_factory=_BASE_WEIGHTS.copy)
    clip: tuple[float, float] = (0.02, 1.44)
    decimals: int = 4

    def __post_init__(self):
        if self.spread <= 0 or self.median <= 0:
            raise ValueError("median and spread must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if not self.weights:
            raise ValueError("the quality link needs at least one feature weight")


@dataclass(frozen=True)
class DistributionSpec:
    tag: DatabaseTag
    features: dict[str, FeatureDistribution]
    rf: RFLink

    def __post_init__(self):
        names, given = set(canonical_schema().names), set(self.features)
        if given != names:
            raise ValueError(f"feature specs must cover the schema exactly "
                             f"(missing {sorted(names - given)}, extra {sorted(given - names)})")
        unknown = set(self.rf.weights) - names
        if unknown:
            raise ValueError(f"rf link weights unknown feature(s): {sorted(unknown)}")


# Shared base recipe; per-preset divergence applies on top of it.
_BASE_FEATURES: dict[str, FeatureDistribution] = {
    "api_gravity": FeatureDistribution("normal", (32.0, 8.0), decimals=1, clip=(7.0, 60.0)),
    "bo": FeatureDistribution("lognormal", (math.log(1.25), 0.12), decimals=3, clip=(1.0, 3.0)),
    "gor": FeatureDistribution("lognormal", (math.log(8.0), 0.9), decimals=2, clip=(0.01, 300.0)),
    "water_saturation": FeatureDistribution("beta", (2.5, 3.5, 0.05, 0.9), decimals=2, clip=(0.05, 0.86)),
    "temperature": FeatureDistribution("normal", (160.0, 40.0), decimals=0, clip=(50.0, 380.0)),
    "pressure": FeatureDistribution("lognormal", (math.log(2800.0), 0.5), decimals=0, clip=(150.0, 16000.0)),
    "thickness": FeatureDistribution("lognormal", (math.log(60.0), 0.8), decimals=0, clip=(2.0, 2200.0)),
    "reserves": FeatureDistribution("lognormal", (math.log(5.0e7), 1.5), decimals=0, clip=(2.5e6, 2.0e10)),
    "permeability": FeatureDistribution("lognormal", (math.log(120.0), 1.3), decimals=2, clip=(0.05, 4800.0)),
    "porosity": FeatureDistribution("beta", (3.0, 4.0, 0.03, 0.5), decimals=3, clip=(0.03, 0.55)),
    "area": FeatureDistribution("lognormal", (math.log(2500.0), 1.2), decimals=0, clip=(60.0, 190000.0)),
}

_LOG_FEATURES = frozenset({"reserves", "area", "thickness", "permeability"})

# The presets' RF link median, spread and noise before their offsets.
_BASE_LINK = (0.33, 0.50, 0.72)


class _Preset(NamedTuple):  # one source's departure from the base recipe
    tag: DatabaseTag
    missing_rate: float
    rf_clip: tuple[float, float]
    link: tuple[float, float, float]  # offsets to the RF link's median, spread, noise
    shifts: dict[str, float]  # added to the sampled value
    scales: dict[str, float]  # the value's scale at divergence 1
    admixture: dict[str, float]  # added to the base quality weights


_PRESETS = {
    "toris": _Preset(DatabaseTag.TORIS, 0.15, (0.02, 1.44), (0.0, 0.0, 0.0), {}, {},
                     {"temperature": 0.15}),
    "commercial": _Preset(
        DatabaseTag.COMMERCIAL, 0.10, (0.02, 1.44), (-0.06, 0.04, 0.02),
        {"api_gravity": -3.0, "temperature": -12.0, "water_saturation": 0.06},
        {"pressure": 1.15, "gor": 0.75, "thickness": 1.3, "reserves": 1.4, "area": 1.7},
        {"reserves": -0.15, "area": -0.08, "thickness": -0.10, "permeability": -0.10,
         "porosity": 0.14, "api_gravity": 0.10}),
    "atlas": _Preset(
        DatabaseTag.ATLAS, 0.04, (0.01, 2.32), (0.07, -0.02, 0.10),
        {"api_gravity": 8.0, "temperature": 40.0, "porosity": 0.09,
         "water_saturation": -0.08, "permeability": 8.0},
        {"porosity": 0.60, "permeability": 0.35, "thickness": 0.60, "area": 1.30,
         "reserves": 1.10, "gor": 1.3, "pressure": 1.3},
        {"reserves": -0.20, "area": 0.05, "thickness": -0.14, "permeability": -0.14,
         "porosity": 0.12, "water_saturation": -0.10}),
}


def preset(name: str, divergence: float = 1.0) -> DistributionSpec:
    """The named source's recipe. Divergence 0 gives the base recipe with the
    source's missing rate and RF clip; larger values move further from it."""
    try:
        row = _PRESETS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}") from None
    if not math.isfinite(divergence):
        raise ValueError(f"divergence must be finite, got {divergence!r}")
    features = {
        feature: replace(dist, missing_rate=row.missing_rate,
                         shift=divergence * row.shifts.get(feature, 0.0),
                         scale=1.0 + divergence * (row.scales.get(feature, 1.0) - 1.0))
        for feature, dist in _BASE_FEATURES.items()
    }
    weights = dict(_BASE_WEIGHTS)  # admixture keys after the base ones: generate sums in order
    for feature, delta in row.admixture.items():
        weights[feature] = weights.get(feature, 0.0) + divergence * delta
    median, spread, noise = (base + divergence * offset
                             for base, offset in zip(_BASE_LINK, row.link))
    return DistributionSpec(
        tag=row.tag,
        features=features,
        rf=RFLink(median=median, spread=spread, noise_sigma=noise,
                  weights={feature: w for feature, w in weights.items() if w != 0},
                  clip=row.rf_clip),
    )


def generate(spec: DistributionSpec, n: int, seed: int) -> Database:
    """Draw n records deterministically from a distribution recipe.

    RF is present for every record; per-cell missingness is Bernoulli at the
    feature's rate and applied after the RF link has consumed the true
    values.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    schema = canonical_schema()
    rng = np.random.default_rng(seed)

    values = np.empty((n, len(schema.names)))
    for j, name in enumerate(schema.names):  # fixed draw order keeps generation reproducible
        values[:, j] = spec.features[name].sample(rng, n)

    quality = np.zeros(n)
    norm = math.sqrt(sum(w * w for w in spec.rf.weights.values()))
    for name, weight in spec.rf.weights.items():
        column = values[:, schema.index(name)]
        if name in _LOG_FEATURES:
            column = np.log(np.maximum(column, 1e-12))
        mu, sigma = float(column.mean()), float(column.std())
        if sigma > 0:  # a constant column (each one when n is 1) moves no record's quality
            quality += weight * (column - mu) / sigma
    quality /= norm

    noise = rng.normal(0.0, spec.rf.noise_sigma, size=n)
    rf = spec.rf.median * np.exp(spec.rf.spread * (quality + noise))
    rf = np.clip(np.round(rf, spec.rf.decimals), spec.rf.clip[0], spec.rf.clip[1])

    for j, name in enumerate(schema.names):
        rate = spec.features[name].missing_rate
        if rate > 0:
            values[rng.random(n) < rate, j] = np.nan
    prefix = spec.tag.value.lower()
    return Database(
        tag=spec.tag, schema=schema, values=values,
        keys=np.array([f"{prefix}-{i:05d}" for i in range(n)], dtype=object),
        rf=rf, sources=np.full(n, spec.tag, dtype=object),
    )
