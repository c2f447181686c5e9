import hashlib
import math

import numpy as np
import pytest

from rfclass.dataset import DatabaseTag, serialize_database
from rfclass.preprocess import class_labels
from rfclass.synth import DistributionSpec, FeatureDistribution, RFLink, generate, preset


#: SHA-256 of repr(preset(name, divergence)), recorded from the per-preset
#: factory functions the preset table replaced. The repr holds only Python
#: floats, strings and dicts, so it does not depend on the numpy version.
PRESET_DIGESTS = {
    ("toris", 0.0): "a6a5d697980247e5a27af5eec02f66045e448c672a4e52e01cc6ec2af122e146",
    ("toris", 0.5): "e681d8527b25fdb9825e8fcabdef6960aa2c9ca3fcb3b3e4719edd5a2e26be42",
    ("toris", 1.0): "6de78c424a64af37060d9a6df0596fa5c8bd2499508977ff0a178d7d8c1dbfb8",
    ("toris", 2.0): "151ba6ae2b896cb1170d311759ebe86f953f7e464d1c2a1e12d1763344e1fed5",
    ("commercial", 0.0): "c0010ee4b21ac827708c02eb41a7fd7459d657128a50d0be79e3f744525eb6f5",
    ("commercial", 0.5): "0dd0586f6504898d67ed8b5928cb4f0b0a6ba3b4acc66f042bc0ab17ea64fbf0",
    ("commercial", 1.0): "f5ec5f25e745b8646ffc042167ae39d2a967efe16410b315db4c7024773e7da8",
    ("commercial", 2.0): "c7bfeb43a22d953d284a61008e074a7dfd2566274f931780e74235951c790746",
    ("atlas", 0.0): "e33ce7b8a25447912b0c319260219c97196991816dbfd26f063e6363ec47cdaf",
    ("atlas", 0.5): "12a927c0661a4bcdc8b1edd156efbf4c20bdc2819256b383dfc4ed603cfa3543",
    ("atlas", 1.0): "d34aa8de03f2b2f6c744d892cb621c1d068be3eaac2400bda5d65456b07adf62",
    ("atlas", 2.0): "241413a102dc497e1c7f3f0e92716f4ab24856907d2d85758e0653664d4efa30",
}


class TestPresetTable:
    @pytest.mark.parametrize("name, divergence", sorted(PRESET_DIGESTS))
    def test_spec_matches_the_recorded_digest(self, name, divergence):
        digest = hashlib.sha256(repr(preset(name, divergence)).encode()).hexdigest()
        assert digest == PRESET_DIGESTS[name, divergence]

    @pytest.mark.parametrize("divergence", [math.nan, math.inf, -math.inf])
    def test_non_finite_divergence_rejected(self, divergence):
        with pytest.raises(ValueError, match="divergence must be finite"):
            preset("toris", divergence)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(preset("toris"), 300, seed=11)
        b = generate(preset("toris"), 300, seed=11)
        assert a.records == b.records
        assert serialize_database(a) == serialize_database(b)

    def test_different_seed_differs(self):
        a = generate(preset("toris"), 100, seed=1)
        b = generate(preset("toris"), 100, seed=2)
        assert a.records != b.records


class TestShapes:
    def test_rf_right_skewed(self):
        rf = generate(preset("toris"), 5000, seed=3).rf
        assert rf.mean() > np.median(rf)

    def test_missingness_concentration(self):
        spec = preset("toris")
        spec = DistributionSpec(
            tag=spec.tag,
            features={name: FeatureDistribution(
                d.family, d.params, missing_rate=0.2, decimals=d.decimals,
                clip=d.clip, shift=d.shift, scale=d.scale)
                for name, d in spec.features.items()},
            rf=spec.rf,
        )
        db = generate(spec, 5000, seed=4)
        fractions = np.isnan(db.values).mean(axis=0)
        assert (np.abs(fractions - 0.2) < 0.02).all()

    def test_all_ten_classes_populated(self):
        db = generate(preset("toris"), 5000, seed=5)
        assert set(class_labels(db).tolist()) == set(range(10))

    def test_rf_always_present(self):
        db = generate(preset("commercial"), 500, seed=6)
        assert not np.isnan(db.rf).any()

    def test_values_respect_declared_ranges(self):
        for name in ("toris", "commercial", "atlas"):
            spec = preset(name)
            db = generate(spec, 1500, seed=7)
            matrix = db.feature_matrix()
            for j, name in enumerate(db.schema.names):
                column = matrix[:, j]
                column = column[~np.isnan(column)]
                lo, hi = spec.features[name].clip
                assert column.min() >= lo and column.max() <= hi, name
            lo, hi = spec.rf.clip
            rf = db.rf
            assert rf.min() >= lo and rf.max() <= hi

    def test_atlas_narrower_porosity_permeability(self):
        toris = generate(preset("toris"), 3000, seed=8)
        atlas = generate(preset("atlas"), 3000, seed=9)
        for name in ("porosity", "permeability"):
            j = toris.schema.index(name)
            t_col = toris.feature_matrix()[:, j]
            a_col = atlas.feature_matrix()[:, j]
            t_spread = np.nanpercentile(t_col, 75) - np.nanpercentile(t_col, 25)
            a_spread = np.nanpercentile(a_col, 75) - np.nanpercentile(a_col, 25)
            assert a_spread < t_spread

    def test_zero_divergence_collapses_presets(self):
        # same base distribution: per-feature mean gap under two pooled SEs
        a = generate(preset("toris", 0.0), 2000, seed=10)
        b = generate(preset("atlas", 0.0), 2000, seed=11)
        ma, mb = a.feature_matrix(), b.feature_matrix()
        for j in range(ma.shape[1]):
            xa, xb = ma[:, j], mb[:, j]
            xa, xb = xa[~np.isnan(xa)], xb[~np.isnan(xb)]
            se = np.sqrt(xa.var(ddof=1) / xa.size + xb.var(ddof=1) / xb.size)
            assert abs(xa.mean() - xb.mean()) < 2 * se, a.schema.names[j]

    def test_keys_unique_and_tagged(self):
        db = generate(preset("atlas"), 400, seed=12)
        keys = [r.key for r in db.records]
        assert len(set(keys)) == 400
        assert all(k.startswith("atlas-") for k in keys)
        assert db.tag is DatabaseTag.ATLAS


class TestValidation:
    def test_preset_lookup(self):
        assert preset("TORIS").tag is DatabaseTag.TORIS
        with pytest.raises(ValueError, match="unknown preset"):
            preset("gulf")

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate(preset("toris"), 0, seed=0)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            FeatureDistribution("cauchy", (0.0, 1.0))

    def test_bad_missing_rate_rejected(self):
        with pytest.raises(ValueError):
            FeatureDistribution("normal", (0.0, 1.0), missing_rate=1.0)

    def test_spec_must_cover_schema(self):
        spec = preset("toris")
        partial = dict(spec.features)
        partial.pop("area")
        with pytest.raises(ValueError, match="cover the schema"):
            DistributionSpec(tag=spec.tag, features=partial, rf=spec.rf)

    def test_rf_link_validation(self):
        with pytest.raises(ValueError):
            RFLink(median=0.0)
        with pytest.raises(ValueError):
            RFLink(weights={})
        with pytest.raises(ValueError, match="unknown feature"):
            spec = preset("toris")
            DistributionSpec(tag=spec.tag, features=spec.features,
                             rf=RFLink(weights={"depth": 1.0}))
