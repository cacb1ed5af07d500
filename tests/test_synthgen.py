import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.cli import RunConfig, generator_config
from strel.errors import ConfigError
from strel.labels import BG_INDEX, Dataset, annotated_counts, build_catalog
from strel.synthgen import GeneratorConfig, generate, mask_annotations, split, zipf_shares

from _oracles import compile_split, object_generate, object_mask_annotations, object_split, scene_lines
from conftest import assert_records_equal, build_scene, iter_triplets


def small_config(**overrides):
    base = dict(
        n_scenes=150,
        entities_min=6,
        entities_max=10,
        n_fg_classes=5,
        zipf_exponent=1.0,
        feature_dim=8,
        class_separation=3.0,
        noise_sigma=0.5,
        annotated_fraction=0.2,
        true_bg_fraction=0.1,
        sibling_groups=1,
        seed=123,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


def hand_dataset(n_scenes=10, labels_per_scene=(1, 2, 3, 1), n_fg=3):
    """Fully annotated dataset with known labels, for masking/split tests."""
    rng = np.random.default_rng(7)
    arrays = compile_split(build_scene(i, labels_per_scene, rng=rng) for i in range(n_scenes))
    counts = annotated_counts(arrays.observed, n_fg).tolist()
    catalog = build_catalog({f"c{i}": c for i, c in enumerate(counts)})
    return Dataset(arrays, catalog, split="full")


class TestZipfShares:
    def test_exponent_one_three_classes(self):
        # oracle: normalize 1/k for k = 1..3 by hand
        expected = np.array([1.0, 1 / 2, 1 / 3])
        expected = expected / expected.sum()  # = [6/11, 3/11, 2/11]
        np.testing.assert_allclose(zipf_shares(3, 1.0), expected, rtol=1e-12)
        np.testing.assert_allclose(expected, [6 / 11, 3 / 11, 2 / 11], rtol=1e-12)

    def test_zero_exponent_is_uniform(self):
        np.testing.assert_allclose(zipf_shares(4, 0.0), np.full(4, 0.25), rtol=1e-12)


class TestGenerate:
    def test_class_shares_follow_zipf(self):
        cfg = small_config(n_scenes=600, zipf_exponent=1.0, n_fg_classes=3, true_bg_fraction=0.0)
        ds = generate(cfg)
        counts = np.asarray(ds.catalog.counts, dtype=float)
        shares = counts / counts.sum()
        expected = zipf_shares(3, 1.0)
        # multinomial noise bound: a few sigma at ~2000 draws
        assert np.all(np.abs(shares - expected) < 0.05)

    def test_deterministic_serialization(self):
        cfg = small_config()
        a = generate(cfg)
        b = generate(cfg)
        lines_a = list(scene_lines(a.arrays))
        lines_b = list(scene_lines(b.arrays))
        assert lines_a == lines_b
        assert a.catalog == b.catalog

    def test_counts_sorted_and_catalog_consistent(self):
        ds = generate(small_config())
        assert all(a >= b for a, b in zip(ds.catalog.counts, ds.catalog.counts[1:]))
        labels = [t.observed_label for t in iter_triplets(ds)]
        recount = [labels.count(c) for c in range(1, ds.catalog.n_foreground + 1)]
        assert tuple(recount) == ds.catalog.counts

    def test_fully_annotated_at_generation(self):
        ds = generate(small_config())
        assert all(t.observed_label == t.hidden_label for t in iter_triplets(ds))

    def test_true_bg_pairs_exist(self):
        ds = generate(small_config(true_bg_fraction=0.3))
        n_bg = sum(1 for t in iter_triplets(ds) if t.hidden_label == BG_INDEX)
        assert 0 < n_bg < sum(len(s.triplets) for s in ds.scenes)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            generate(small_config(n_fg_classes=1))
        with pytest.raises(ConfigError):
            generate(small_config(feature_dim=7))
        with pytest.raises(ConfigError):
            generate(small_config(annotated_fraction=0.0))

    def test_pair_features_near_class_prototypes(self):
        # same hidden class => pair features cluster; distinct classes separate
        cfg = small_config(noise_sigma=0.05, sibling_groups=0, n_scenes=80)
        ds = generate(cfg)
        by_class = {}
        for t in iter_triplets(ds):
            if t.hidden_label != BG_INDEX:  # background is deliberately diffuse
                by_class.setdefault(t.hidden_label, []).append(t.features)
        means = {c: np.mean(v, axis=0) for c, v in by_class.items() if len(v) > 3}
        classes = sorted(means)
        for c in classes:
            spread = np.mean([np.linalg.norm(f - means[c]) for f in by_class[c]])
            assert spread < 1.0
        for i in classes:
            for j in classes:
                if i < j:
                    assert np.linalg.norm(means[i] - means[j]) > 1.5

    def test_background_cloud_is_wider_than_class_clouds(self):
        cfg = small_config(noise_sigma=0.3, bg_noise_sigma=2.0, true_bg_fraction=0.4)
        ds = generate(cfg)
        bg = np.stack([t.features for t in iter_triplets(ds) if t.hidden_label == BG_INDEX])
        fg = np.stack([t.features for t in iter_triplets(ds) if t.hidden_label == 1])
        spread = lambda x: np.mean(np.linalg.norm(x - x.mean(axis=0), axis=1))
        assert spread(bg) > 2.0 * spread(fg)


class TestMaskAnnotations:
    def test_identity_fraction(self):
        ds = hand_dataset()
        masked = mask_annotations(ds, 1.0, seed=0)
        assert all(t.observed_label == t.hidden_label for t in iter_triplets(masked))

    def test_exact_counts_at_4_5_percent(self):
        # 250 scenes x 4 relation pairs = 1000 relation-bearing pairs
        ds = hand_dataset(n_scenes=250)
        masked = mask_annotations(ds, 0.045, seed=1)
        annotated = sum(1 for t in iter_triplets(masked) if t.observed_label != BG_INDEX)
        observed_bg = sum(1 for t in iter_triplets(masked) if t.observed_label == BG_INDEX)
        assert annotated == 45  # ceil(0.045 * 1000)
        assert observed_bg == 955

    def test_masked_truth_count_is_exact(self):
        ds = hand_dataset(n_scenes=40)  # 160 relation pairs
        masked = mask_annotations(ds, 0.5, seed=2)
        hidden_unannotated = sum(
            1
            for t in iter_triplets(masked)
            if t.observed_label == BG_INDEX and t.hidden_label != BG_INDEX
        )
        assert hidden_unannotated == 160 - math.ceil(0.5 * 160)

    def test_reproducible_mask_set(self):
        ds = hand_dataset(n_scenes=30)
        a = mask_annotations(ds, 0.5, seed=9)
        b = mask_annotations(ds, 0.5, seed=9)
        obs_a = [t.observed_label for t in iter_triplets(a)]
        obs_b = [t.observed_label for t in iter_triplets(b)]
        assert obs_a == obs_b

    def test_fraction_bounds(self):
        ds = hand_dataset()
        with pytest.raises(ConfigError):
            mask_annotations(ds, 0.0, seed=0)
        with pytest.raises(ConfigError):
            mask_annotations(ds, 1.5, seed=0)


class TestSplit:
    def test_scene_allocation(self):
        ds = hand_dataset(n_scenes=100)
        train, val, test = split(ds, (0.7, 0.1, 0.2), seed=5)
        assert (len(train.scenes), len(val.scenes), len(test.scenes)) == (70, 10, 20)
        assert (train.split, val.split, test.split) == ("train", "val", "test")

    def test_degenerate_fractions_error(self):
        ds = hand_dataset()
        with pytest.raises(ConfigError):
            split(ds, (1.0, 0.0, 0.0), seed=0)
        with pytest.raises(ConfigError):
            split(ds, (0.5, 0.4, 0.3), seed=0)

    def test_scene_level_disjoint_partition(self):
        ds = hand_dataset(n_scenes=25)
        train, val, test = split(ds, (0.6, 0.2, 0.2), seed=3)
        ids = [s.scene_id for part in (train, val, test) for s in part.scenes]
        assert sorted(ids) == [s.scene_id for s in ds.scenes]

    def test_catalog_counts_equal_brute_force_recount(self):
        ds = mask_annotations(hand_dataset(n_scenes=60), 0.3, seed=8)
        train, val, test = split(ds, (0.7, 0.1, 0.2), seed=4)
        # independent counting pass over the returned train split
        brute = [0] * train.catalog.n_foreground
        for scene in train.scenes:
            for t in scene.triplets:
                if t.observed_label != BG_INDEX:
                    brute[t.observed_label - 1] += 1
        assert tuple(brute) == train.catalog.counts
        assert all(a >= b for a, b in zip(train.catalog.counts, train.catalog.counts[1:]))
        assert val.catalog == train.catalog and test.catalog == train.catalog

    def test_label_remap_preserves_class_identity(self):
        ds = mask_annotations(hand_dataset(n_scenes=60), 0.3, seed=8)
        train, _, _ = split(ds, (0.7, 0.1, 0.2), seed=4)
        # the original and remapped datasets agree on per-name hidden counts
        def counts_by_name(dataset):
            names = dataset.catalog.class_names
            out = {}
            for t in iter_triplets(dataset):
                if t.hidden_label != BG_INDEX:
                    out[names[t.hidden_label]] = out.get(names[t.hidden_label], 0) + 1
            return out

        split_scene_ids = {s.scene_id for s in train.scenes}
        original_subset = Dataset(
            compile_split(s for s in ds.scenes if s.scene_id in split_scene_ids),
            catalog=ds.catalog,
            split="train",
        )
        assert counts_by_name(original_subset) == counts_by_name(train)


# --- the columnar pipeline against the object-form oracle ------------------------


def assert_same_split(ours, oracle):
    assert ours.split == oracle.split and ours.catalog == oracle.catalog
    got, want = ours.arrays, compile_split(oracle.scenes)
    assert got.features.dtype == want.features.dtype and got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    for name in ("observed", "hidden", "scene_ids", "scene_offsets", "subject_row", "object_row",
                 "pair_scene", "pair_index", "entity_offsets", "entity_ids", "entity_classes"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.entity_features.tobytes() == want.entity_features.tobytes()
    assert len(ours.scenes) == len(oracle.scenes)
    for a, b in zip(ours.scenes, oracle.scenes):
        assert_records_equal(a, b)


def run_both(config, fraction, mask_seed, fractions, split_seed):
    full = generate(config)
    masked = mask_annotations(full, fraction, mask_seed)
    ref_full = object_generate(config)
    ref_masked = object_mask_annotations(ref_full, fraction, mask_seed)
    assert_same_split(full, ref_full)
    assert_same_split(masked, ref_masked)
    for ours, ref in zip(split(masked, fractions, split_seed),
                         object_split(ref_masked, fractions, split_seed)):
        assert_same_split(ours, ref)


@st.composite
def generator_configs(draw):
    n_fg = draw(st.integers(2, 7))
    if draw(st.booleans()):
        ranks = draw(st.permutations(range(1, n_fg + 1)))
        n_pairs = draw(st.integers(0, n_fg // 2))
        pairs = ",".join(f"{ranks[2 * g]}:{ranks[2 * g + 1]}" for g in range(n_pairs))
        sibling = dict(sibling_pairs=pairs, sibling_groups=0)
    else:
        sibling = dict(sibling_groups=draw(st.integers(0, (n_fg - 1) // 2)))
    entities_min = draw(st.integers(2, 9))
    return GeneratorConfig(
        n_scenes=draw(st.integers(10, 30)),
        entities_min=entities_min,
        entities_max=draw(st.integers(entities_min, 16)),
        n_fg_classes=n_fg,
        zipf_exponent=draw(st.sampled_from([0.0, 1.0, 1.5, 3.0])),
        feature_dim=2 * draw(st.integers(1, 10)),
        true_bg_fraction=draw(st.sampled_from([0.0, 0.15, 0.6]) | st.floats(0.0, 0.95)),
        n_entity_classes=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)),
        **sibling,
    )


class TestObjectOracle:
    @given(
        config=generator_configs(),
        fraction=st.floats(0.01, 1.0),
        mask_seed=st.integers(0, 1000),
        fractions=st.sampled_from([(0.7, 0.1, 0.2), (0.4, 0.3, 0.3), (0.5, 0.25, 0.25)]),
        split_seed=st.integers(0, 1000),
    )
    def test_small_configs_match_the_object_pipeline(
        self, config, fraction, mask_seed, fractions, split_seed
    ):
        run_both(config, fraction, mask_seed, fractions, split_seed)

    def test_benchmark_default_matches_the_object_pipeline(self):
        rc = RunConfig()
        run_both(
            generator_config(rc), rc.annotated_fraction, rc.mask_seed,
            (rc.train_fraction, rc.val_fraction, rc.test_fraction), rc.split_seed,
        )
