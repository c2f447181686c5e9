import numpy as np
import pytest

from rfclass.dataset import DatabaseTag, serialize_database
from rfclass.preprocess import class_labels
from rfclass.synth import (DistributionSpec, FeatureDistribution, RFLink,
                           atlas_like, commercial_like, generate, preset,
                           toris_like)


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate(toris_like(), 300, seed=11)
        b = generate(toris_like(), 300, seed=11)
        assert a.records == b.records
        assert serialize_database(a) == serialize_database(b)

    def test_different_seed_differs(self):
        a = generate(toris_like(), 100, seed=1)
        b = generate(toris_like(), 100, seed=2)
        assert a.records != b.records


class TestShapes:
    def test_rf_right_skewed(self):
        rf = generate(toris_like(), 5000, seed=3).rf
        assert rf.mean() > np.median(rf)

    def test_missingness_concentration(self):
        spec = toris_like()
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
        db = generate(toris_like(), 5000, seed=5)
        assert set(class_labels(db).tolist()) == set(range(10))

    def test_rf_always_present(self):
        db = generate(commercial_like(), 500, seed=6)
        assert not np.isnan(db.rf).any()

    def test_values_respect_declared_ranges(self):
        for factory in (toris_like, commercial_like, atlas_like):
            spec = factory()
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
        toris = generate(toris_like(), 3000, seed=8)
        atlas = generate(atlas_like(), 3000, seed=9)
        for name in ("porosity", "permeability"):
            j = toris.schema.index(name)
            t_col = toris.feature_matrix()[:, j]
            a_col = atlas.feature_matrix()[:, j]
            t_spread = np.nanpercentile(t_col, 75) - np.nanpercentile(t_col, 25)
            a_spread = np.nanpercentile(a_col, 75) - np.nanpercentile(a_col, 25)
            assert a_spread < t_spread

    def test_zero_divergence_collapses_presets(self):
        # same base distribution: per-feature mean gap under two pooled SEs
        a = generate(toris_like(divergence=0.0), 2000, seed=10)
        b = generate(atlas_like(divergence=0.0), 2000, seed=11)
        ma, mb = a.feature_matrix(), b.feature_matrix()
        for j in range(ma.shape[1]):
            xa, xb = ma[:, j], mb[:, j]
            xa, xb = xa[~np.isnan(xa)], xb[~np.isnan(xb)]
            se = np.sqrt(xa.var(ddof=1) / xa.size + xb.var(ddof=1) / xb.size)
            assert abs(xa.mean() - xb.mean()) < 2 * se, a.schema.names[j]

    def test_keys_unique_and_tagged(self):
        db = generate(atlas_like(), 400, seed=12)
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
            generate(toris_like(), 0, seed=0)

    def test_bad_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            FeatureDistribution("cauchy", (0.0, 1.0))

    def test_bad_missing_rate_rejected(self):
        with pytest.raises(ValueError):
            FeatureDistribution("normal", (0.0, 1.0), missing_rate=1.0)

    def test_spec_must_cover_schema(self):
        spec = toris_like()
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
            spec = toris_like()
            DistributionSpec(tag=spec.tag, features=spec.features,
                             rf=RFLink(weights={"depth": 1.0}))
