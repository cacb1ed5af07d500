import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from strel import tensorio
from strel.errors import ConfigError, ValidationError
from strel.labels import (
    BG_INDEX,
    SPLIT_COLUMNS,
    Dataset,
    Entity,
    PredicateCatalog,
    Scene,
    TripletInstance,
    make_scene,
    read_scenes,
    relation_features,
    write_scenes,
)

from _oracles import build_catalog, compile_split
from conftest import assert_records_equal, build_shared_scene


@given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 4), data=st.data())
def test_planned_batches_equal_gathering_each_batch(seed, batch_size, data):
    """Each batch of an epoch plan holds what gathering its scenes alone
    gives: ``rows_of`` their positions, those rows' observed labels, their
    pair counts and, with ``entities``, what planning them as one batch
    gives, through a short last batch, a plan that starts mid-epoch (a
    resume) and scenes with no pairs."""
    rng = np.random.default_rng(seed)
    scenes = [build_shared_scene(i, rng, int(rng.integers(2, 5)), int(rng.integers(0, 4)))
              for i in range(int(rng.integers(1, 10)))]
    arrays = compile_split(scenes)
    order = rng.permutation(len(scenes))
    first = data.draw(st.integers(0, (len(order) - 1) // batch_size))  # the batch a resume starts at
    positions = order[first * batch_size :]
    plan = arrays.batches(positions, batch_size, entities=True)
    assert len(plan) == -(-len(positions) // batch_size)
    for b, (batch, plain) in enumerate(zip(plan, arrays.batches(positions, batch_size),
                                           strict=True)):
        mine = positions[b * batch_size : (b + 1) * batch_size]
        rows = arrays.rows_of(mine)
        assert batch.rows.tolist() == plain.rows.tolist() == rows.tolist()
        assert batch.observed.tolist() == plain.observed.tolist() == arrays.observed[rows].tolist()
        assert batch.sizes.tolist() == np.diff(arrays.scene_offsets)[mine].tolist()
        assert plain.entities is plain.subject is plain.object is None
        alone = arrays.batches(mine, len(mine), entities=True)[0]
        assert (arrays.entity_features[batch.entities].tobytes()
                == arrays.entity_features[alone.entities].tobytes())
        assert batch.subject.tolist() == alone.subject.tolist()
        assert batch.object.tolist() == alone.object.tolist()


class TestBuildCatalog:
    def test_sorts_descending_with_bg_at_zero(self):
        cat = build_catalog({"a": 50, "b": 40, "c": 10})
        assert cat.counts == (50, 40, 10)
        assert cat.class_names == ("bg", "a", "b", "c")
        assert cat.class_names[BG_INDEX] == "bg"
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
        # the foreground class with label index c has count counts[c - 1]
        assert tiny_catalog.counts[1 - 1] == 50
        assert tiny_catalog.counts[3 - 1] == 10
        assert len(tiny_catalog.counts) == tiny_catalog.n_foreground == 3


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
        path = tmp_path / "scenes.tns"
        write_scenes(path, compile_split(scenes))
        back = read_scenes(path).to_scenes()
        assert len(back) == len(scenes)
        for a, b in zip(scenes, back):
            assert a.scene_id == b.scene_id
            assert [t.observed_label for t in a.triplets] == [t.observed_label for t in b.triplets]
            assert [t.hidden_label for t in a.triplets] == [t.hidden_label for t in b.triplets]
            for ea, eb in zip(a.entities, b.entities):
                np.testing.assert_allclose(ea.features, eb.features, rtol=1e-8)

    def test_second_round_trip_is_byte_stable(self, tmp_path):
        first, second = tmp_path / "first.tns", tmp_path / "second.tns"
        write_scenes(first, compile_split(self._sample_scenes()))
        write_scenes(second, read_scenes(first))
        assert first.read_bytes() == second.read_bytes()

    def test_nine_significant_digits(self, tmp_path):
        scene = make_scene(
            0,
            [Entity(0, 0, np.array([1.23456789123456])), Entity(1, 0, np.array([2.0]))],
            [(0, 1, 0, 0)],
        )
        write_scenes(tmp_path / "s.tns", compile_split([scene]))
        assert read_scenes(tmp_path / "s.tns").entity_features.ravel().tolist() == [1.23456789, 2.0]

    def test_archive_holds_exactly_the_split_columns(self, tmp_path):
        arrays = compile_split(self._sample_scenes())
        write_scenes(tmp_path / "s.tns", arrays)
        columns, meta = tensorio.load_tensors(tmp_path / "s.tns")
        assert meta == {}
        assert {name: c.dtype for name, c in columns.items()} == {
            name: np.dtype(dtype) for name, dtype in SPLIT_COLUMNS.items()
        }
        for name in SPLIT_COLUMNS:
            if name != "entity_features":
                np.testing.assert_array_equal(columns[name], getattr(arrays, name))

    @pytest.mark.parametrize(
        "damage", ["truncated", "magic", "dtype-string", "no-column", "wrong-dtype", "wrong-rank"]
    )
    def test_damaged_archive_is_a_validation_error(self, tmp_path, damage):
        path = tmp_path / "s.tns"
        write_scenes(path, compile_split(self._sample_scenes()))
        data = path.read_bytes()
        columns, _ = tensorio.load_tensors(path)
        if damage == "truncated":
            path.write_bytes(data[:-3])
        elif damage == "magic":
            path.write_bytes(b"X" + data[1:])
        elif damage == "dtype-string":
            path.write_bytes(data.replace(b'"int64"', b'",nt64"', 1))
        elif damage == "no-column":
            del columns["hidden"]
        elif damage == "wrong-dtype":
            columns["observed"] = columns["observed"].astype(np.int64)
        else:
            columns["entity_features"] = columns["entity_features"].ravel()
        if damage in ("no-column", "wrong-dtype", "wrong-rank"):
            tensorio.save_tensors(path, columns)
        with pytest.raises(ValidationError, match="s.tns"):
            read_scenes(path)


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
        arrays = compile_split(self._scenes())
        positions = np.array([2, 1, 3])  # scene 1 has no pairs
        batch = arrays.batches(positions, len(positions), entities=True)[0]
        table, subj, obj = arrays.entity_features[batch.entities], batch.subject, batch.object
        rows = arrays.rows_of(positions)
        half = arrays.features.shape[1] // 2
        np.testing.assert_array_equal(table[subj], arrays.features[rows, :half])
        np.testing.assert_array_equal(table[obj], arrays.features[rows, half:])
        # every entity of those scenes, scene by scene as given
        np.testing.assert_array_equal(table, arrays.entity_features[[8, 9, 10, 11, 4, 5, 6, 7,
                                                                     12, 13, 14, 15]])

    def test_pair_features_of_one_length(self):
        short = make_scene(9, [Entity(0, 0, np.zeros(1)), Entity(1, 0, np.zeros(1))], [(0, 1, 0, 0)])
        with pytest.raises(ValidationError, match="differ in length"):
            compile_split(self._scenes() + [short])

    def test_take_equals_compiling_the_chosen_scenes(self):
        scenes = self._scenes()
        positions = np.array([2, 0, 3])
        got, want = compile_split(scenes).take(positions), compile_split([scenes[p] for p in positions])
        for name in ("scene_ids", "scene_offsets", "entity_offsets", "entity_ids", "entity_classes",
                     "entity_features", "subject_row", "object_row", "observed", "hidden", "features"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
            assert getattr(got, name).dtype == getattr(want, name).dtype, name

    def test_scene_view_rebuilds_the_records(self):
        scenes = self._scenes()
        back = compile_split(scenes).to_scenes()
        assert len(back) == len(scenes)
        for a, b in zip(back, scenes):
            assert_records_equal(a, b)

    def test_dataset_builds_its_scene_view_once(self, tiny_catalog):
        ds = Dataset(compile_split(self._scenes()), tiny_catalog)
        assert ds.scenes is ds.scenes
