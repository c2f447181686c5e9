"""Synthetic reservoir databases with controllable distribution shapes.

Three presets mimic the source databases at desk scale: TORIS-like and
Commercial-like draw from nearby distributions while the Atlas-like preset
is narrower in porosity and permeability and shifted elsewhere. The recovery
factor comes from a noisy monotone link on a latent quality driven chiefly
by reserves, area, thickness and permeability, giving the attribution stage
a known ground truth. Divergence knobs at zero collapse all presets onto a
common base distribution.
"""

import math
from dataclasses import dataclass, field, replace

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
        if self.family == "lognormal":
            mu, sigma = self.params
            values = np.exp(rng.normal(mu, sigma, size=n))
        elif self.family == "normal":
            mu, sigma = self.params
            values = rng.normal(mu, sigma, size=n)
        else:
            a, b, lo, hi = self.params
            values = lo + (hi - lo) * rng.beta(a, b, size=n)
        values = values * self.scale + self.shift
        values = np.round(values, self.decimals)
        return np.clip(values, self.clip[0], self.clip[1])


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
    weights: dict[str, float] = field(default_factory=lambda: {
        "reserves": 0.35, "area": 0.25, "thickness": 0.20, "permeability": 0.20,
    })
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
        names = set(canonical_schema().names)
        missing = names - set(self.features)
        extra = set(self.features) - names
        if missing or extra:
            raise ValueError(f"feature specs must cover the schema exactly "
                             f"(missing {sorted(missing)}, extra {sorted(extra)})")
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


def _with_divergence(
    base: dict[str, FeatureDistribution],
    missing_rate: float,
    shifts: dict[str, float],
    scales: dict[str, float],
    divergence: float,
) -> dict[str, FeatureDistribution]:
    out = {}
    for name, dist in base.items():
        shift = divergence * shifts.get(name, 0.0)
        scale = 1.0 + divergence * (scales.get(name, 1.0) - 1.0)
        out[name] = replace(dist, missing_rate=missing_rate, shift=shift, scale=scale)
    return out


def _blend_weights(divergence: float, admixture: dict[str, float]) -> dict[str, float]:
    """Mix the base quality drivers toward a database-specific profile.

    The four base drivers always stay dominant; admixture entries perturb
    them and add minor secondary drivers, scaled by the divergence knob.
    """
    base = {"reserves": 0.35, "area": 0.25, "thickness": 0.20, "permeability": 0.20}
    out = dict(base)
    for name, delta in admixture.items():
        out[name] = out.get(name, 0.0) + divergence * delta
    return {name: w for name, w in out.items() if w != 0}


def toris_like(divergence: float = 1.0) -> DistributionSpec:
    """High-missingness preset; the reference point for the other two."""
    features = _with_divergence(_BASE_FEATURES, missing_rate=0.15, shifts={}, scales={},
                                divergence=divergence)
    return DistributionSpec(
        tag=DatabaseTag.TORIS,
        features=features,
        rf=RFLink(
            median=0.33,
            spread=0.50,
            noise_sigma=0.72,
            weights=_blend_weights(divergence, {"temperature": 0.15}),
            clip=(0.02, 1.44),
        ),
    )


def commercial_like(divergence: float = 1.0) -> DistributionSpec:
    """Moderately shifted from TORIS-like on different axes than Atlas-like."""
    features = _with_divergence(
        _BASE_FEATURES,
        missing_rate=0.10,
        shifts={"api_gravity": -3.0, "temperature": -12.0, "water_saturation": 0.06},
        scales={"pressure": 1.15, "gor": 0.75, "thickness": 1.3, "reserves": 1.4,
                "area": 1.7},
        divergence=divergence,
    )
    return DistributionSpec(
        tag=DatabaseTag.COMMERCIAL,
        features=features,
        rf=RFLink(
            median=0.33 - divergence * 0.06,
            spread=0.50 + divergence * 0.04,
            noise_sigma=0.72 + divergence * 0.02,
            weights=_blend_weights(divergence, {
                "reserves": -0.15, "area": -0.08, "thickness": -0.10,
                "permeability": -0.10, "porosity": 0.14, "api_gravity": 0.10,
            }),
            clip=(0.02, 1.44),
        ),
    )


def atlas_like(divergence: float = 1.0) -> DistributionSpec:
    """Most complete preset; narrower porosity/permeability and shifted means."""
    features = _with_divergence(
        _BASE_FEATURES,
        missing_rate=0.04,
        shifts={"api_gravity": 8.0, "temperature": 40.0, "porosity": 0.09,
                "water_saturation": -0.08, "permeability": 8.0},
        scales={"porosity": 0.60, "permeability": 0.35, "thickness": 0.60,
                "area": 1.30, "reserves": 1.10, "gor": 1.3, "pressure": 1.3},
        divergence=divergence,
    )
    return DistributionSpec(
        tag=DatabaseTag.ATLAS,
        features=features,
        rf=RFLink(
            median=0.33 + divergence * 0.07,
            spread=0.50 - divergence * 0.02,
            noise_sigma=0.72 + divergence * 0.10,
            weights=_blend_weights(divergence, {
                "reserves": -0.20, "area": 0.05, "thickness": -0.14,
                "permeability": -0.14, "porosity": 0.12, "water_saturation": -0.10,
            }),
            clip=(0.01, 2.32),
        ),
    )


_PRESETS = {
    "toris": toris_like,
    "commercial": commercial_like,
    "atlas": atlas_like,
}


def preset(name: str, divergence: float = 1.0) -> DistributionSpec:
    try:
        factory = _PRESETS[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}") from None
    return factory(divergence)


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

    columns = {}
    for name in schema.names:  # fixed draw order keeps generation reproducible
        columns[name] = spec.features[name].sample(rng, n)

    quality = np.zeros(n)
    norm = math.sqrt(sum(w * w for w in spec.rf.weights.values()))
    for name, weight in spec.rf.weights.items():
        values = columns[name]
        if name in _LOG_FEATURES:
            values = np.log(np.maximum(values, 1e-12))
        mu, sigma = float(values.mean()), float(values.std())
        if sigma <= 0:
            raise ValueError(f"feature {name!r} is constant; it cannot drive the RF link")
        quality += weight * (values - mu) / sigma
    quality /= norm

    noise = rng.normal(0.0, spec.rf.noise_sigma, size=n)
    rf = spec.rf.median * np.exp(spec.rf.spread * (quality + noise))
    rf = np.clip(np.round(rf, spec.rf.decimals), spec.rf.clip[0], spec.rf.clip[1])

    masks = {}
    for name in schema.names:
        rate = spec.features[name].missing_rate
        masks[name] = rng.random(n) < rate if rate > 0 else np.zeros(n, dtype=bool)

    values = np.column_stack([columns[name] for name in schema.names])
    values[np.column_stack([masks[name] for name in schema.names])] = np.nan
    prefix = spec.tag.value.lower()
    return Database(
        tag=spec.tag, schema=schema, values=values,
        keys=np.array([f"{prefix}-{i:05d}" for i in range(n)], dtype=object),
        rf=rf, sources=np.full(n, spec.tag, dtype=object),
    )
