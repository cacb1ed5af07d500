import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel.errors import ConfigError, ValidationError
from strel.labels import (
    BG_INDEX,
    Dataset,
    Entity,
    PredicateCatalog,
    Scene,
    TripletInstance,
    argmax_confidence,
    build_catalog,
    compile_split,
    make_scene,
    read_scenes,
    relation_features,
    scene_from_line,
    scene_to_line,
    write_scenes,
)

from conftest import build_shared_scene


class TestBuildCatalog:
    def test_sorts_descending_with_bg_at_zero(self):
        cat = build_catalog({"a": 50, "b": 40, "c": 10})
        assert cat.counts == (50, 40, 10)
        assert cat.class_names == ("bg", "a", "b", "c")
        assert cat.bg_index == 0
        assert cat.n_foreground == 3 and cat.n_classes == 4

    def test_resorts_unordered_input(self):
        cat = build_catalog({"c": 10, "a": 50, "b": 40})
        assert cat.counts == (50, 40, 10)
        assert cat.class_names == ("bg", "a", "b", "c")

    def test_single_class_is_an_error(self):
        with pytest.raises(ConfigError):
            build_catalog({"a": 7})

    def test_ties_keep_insertion_order(self):
        cat = build_catalog({"a": 5, "b": 5})
        assert cat.counts == (5, 5)
        assert cat.class_names == ("bg", "a", "b")

    def test_idempotent_rebuild(self):
        cat = build_catalog({"x": 9, "y": 12, "z": 12})
        again = build_catalog(dict(zip(cat.class_names[1:], cat.counts)))
        assert again == cat

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigError):
            build_catalog({"a": 3, "b": -1})

    def test_reserved_bg_name(self):
        with pytest.raises(ConfigError):
            build_catalog({"bg": 3, "b": 1})


class TestCatalogInvariants:
    def test_unsorted_counts_rejected(self):
        with pytest.raises(ValidationError):
            PredicateCatalog(("bg", "a", "b"), (1, 5))

    def test_name_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            PredicateCatalog(("bg", "a"), (5, 4))

    def test_count_lookup_by_class_index(self, tiny_catalog):
        assert tiny_catalog.count_of(1) == 50
        assert tiny_catalog.count_of(3) == 10
        with pytest.raises(ValidationError):
            tiny_catalog.count_of(0)


class TestArgmaxConfidence:
    def test_definitional(self):
        p = argmax_confidence((0.2, 0.3, 0.5))
        assert p.confidence == 0.5 and p.argmax_class == 2

    def test_one_hot(self):
        p = argmax_confidence((1.0, 0.0, 0.0))
        assert p.confidence == 1.0 and p.argmax_class == 0

    def test_tie_breaks_to_lowest_index(self):
        p = argmax_confidence((0.4, 0.4, 0.2))
        assert p.argmax_class == 0

    def test_negative_entry_rejected(self):
        with pytest.raises(ValidationError):
            argmax_confidence((1.1, -0.1))

    def test_bad_sum_rejected(self):
        with pytest.raises(ValidationError):
            argmax_confidence((0.5, 0.4))

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=12)
    )
    def test_confidence_is_exact_max(self, raw):
        arr = np.asarray(raw)
        arr = arr / arr.sum()
        p = argmax_confidence(arr)
        assert p.confidence == arr.max()  # same arithmetic path, no tolerance
        assert p.argmax_class == int(np.argmax(arr))


class TestTripletInstance:
    def test_annotation_must_match_hidden(self):
        with pytest.raises(ValidationError):
            TripletInstance(0, 0, 1, 0, 0, np.zeros(2), observed_label=2, hidden_label=1)

    def test_unannotated_masking_allowed(self):
        t = TripletInstance(0, 0, 1, 0, 0, np.zeros(2), observed_label=BG_INDEX, hidden_label=3)
        assert t.hidden_label == 3

    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError):
            TripletInstance(0, 1, 1, 0, 0, np.zeros(2), 0, 0)


class TestScene:
    def test_missing_entity_rejected(self):
        ents = [Entity(0, 0, np.zeros(2)), Entity(1, 0, np.zeros(2))]
        bad = TripletInstance(0, 0, 5, 0, 0, np.zeros(4), 0, 0)
        with pytest.raises(ValidationError):
            Scene(0, tuple(ents), (bad,))

    def test_foreign_scene_id_rejected(self):
        ents = [Entity(0, 0, np.zeros(2)), Entity(1, 0, np.zeros(2))]
        bad = TripletInstance(9, 0, 1, 0, 0, np.zeros(4), 0, 0)
        with pytest.raises(ValidationError):
            Scene(0, tuple(ents), (bad,))

    def test_pair_features_are_concatenated_endpoints(self):
        ents = [Entity(0, 3, np.array([1.0, 2.0])), Entity(1, 4, np.array([3.0, 4.0]))]
        scene = make_scene(7, ents, [(0, 1, 2, 2)])
        t = scene.triplets[0]
        np.testing.assert_array_equal(t.features, [1.0, 2.0, 3.0, 4.0])
        assert t.subject_class == 3 and t.object_class == 4
        np.testing.assert_array_equal(
            relation_features(ents[0].features, ents[1].features), t.features
        )


class TestSerialization:
    def _sample_scenes(self):
        rng = np.random.default_rng(42)
        scenes = []
        for sid in range(3):
            ents = [Entity(i, int(rng.integers(5)), rng.standard_normal(3)) for i in range(4)]
            pairs = [(0, 1, 2, 2), (2, 3, 0, 1)]
            scenes.append(make_scene(sid, ents, pairs))
        return scenes

    def test_round_trip_preserves_structure(self, tmp_path):
        scenes = self._sample_scenes()
        path = tmp_path / "scenes.jsonl"
        write_scenes(path, scenes)
        back = read_scenes(path)
        assert len(back) == len(scenes)
        for a, b in zip(scenes, back):
            assert a.scene_id == b.scene_id
            assert [t.observed_label for t in a.triplets] == [t.observed_label for t in b.triplets]
            assert [t.hidden_label for t in a.triplets] == [t.hidden_label for t in b.triplets]
            for ea, eb in zip(a.entities, b.entities):
                np.testing.assert_allclose(ea.features, eb.features, rtol=1e-8)

    def test_second_round_trip_is_byte_stable(self, tmp_path):
        scenes = self._sample_scenes()
        first = [scene_to_line(s) for s in scenes]
        second = [scene_to_line(scene_from_line(line)) for line in first]
        assert first == second

    def test_nine_significant_digits(self):
        scene = make_scene(
            0,
            [Entity(0, 0, np.array([1.23456789123456])), Entity(1, 0, np.array([2.0]))],
            [(0, 1, 0, 0)],
        )
        line = scene_to_line(scene)
        assert "1.23456789" in line and "1.234567891" not in line

    def test_line_has_exactly_the_specified_fields(self):
        import json

        scene = self._sample_scenes()[0]
        raw = json.loads(scene_to_line(scene))
        assert set(raw) == {"scene_id", "entities", "triplets"}
        assert set(raw["entities"][0]) == {"id", "class", "features"}
        assert set(raw["triplets"][0]) == {"subj", "obj", "observed", "hidden"}

    def test_malformed_line_is_a_validation_error(self):
        line = scene_to_line(self._sample_scenes()[0])
        for bad in (line[:-5], '{"scene_id": 1}', '{"scene_id": 1, "entities": 3, "triplets": []}'):
            with pytest.raises(ValidationError, match="malformed scene line"):
                scene_from_line(bad)


class TestSplitArrays:
    def _scenes(self):
        rng = np.random.default_rng(8)
        return [
            build_shared_scene(sid, rng, n_entities=4, n_pairs=n)
            for sid, n in zip((5, 2, 9, 4), (3, 0, 6, 2))
        ]

    def test_rows_follow_scene_and_pair_order(self):
        scenes = self._scenes()
        arrays = compile_split(scenes)
        pairs = [(s.scene_id, i, t) for s in scenes for i, t in enumerate(s.triplets)]
        assert arrays.scene_offsets.tolist() == [0, 3, 3, 9, 11]
        assert arrays.scene_ids[arrays.pair_scene].tolist() == [sid for sid, _, _ in pairs]
        assert arrays.pair_index.tolist() == [i for _, i, _ in pairs]
        assert arrays.observed.tolist() == [t.observed_label for _, _, t in pairs]
        assert arrays.hidden.tolist() == [t.hidden_label for _, _, t in pairs]
        np.testing.assert_array_equal(arrays.features, np.stack([t.features for _, _, t in pairs]))

    def test_rows_of_gathers_scenes_in_the_given_order(self):
        arrays = compile_split(self._scenes())
        assert arrays.rows_of(np.array([3, 1, 0])).tolist() == [9, 10, 0, 1, 2]
        assert arrays.rows_of(np.array([], dtype=np.intp)).tolist() == []

    def test_entity_table_reads_endpoint_features(self):
        scenes = self._scenes()
        arrays = compile_split(scenes)
        rows = np.array([4, 0, 5, 10])
        table, subj, obj = arrays.entity_table(rows)
        half = arrays.features.shape[1] // 2
        np.testing.assert_array_equal(table[subj], arrays.features[rows, :half])
        np.testing.assert_array_equal(table[obj], arrays.features[rows, half:])
        # one table row per distinct entity of the split
        assert len(table) == len(set(arrays.subject_row[rows]) | set(arrays.object_row[rows]))

    def test_pair_features_of_one_length(self):
        short = make_scene(9, [Entity(0, 0, np.zeros(1)), Entity(1, 0, np.zeros(1))], [(0, 1, 0, 0)])
        with pytest.raises(ValidationError, match="differ in length"):
            compile_split(self._scenes() + [short])

    def test_dataset_compiles_once(self, tiny_catalog):
        ds = Dataset(scenes=tuple(self._scenes()), catalog=tiny_catalog)
        assert ds.arrays is ds.arrays
