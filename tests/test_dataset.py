import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netactive import dataset
from netactive.dataset import (
    ORIGIN_COLLECTED,
    ORIGIN_INGESTED,
    ORIGIN_SYNTHESIZED,
    DataPool,
    Normalizer,
    Sample,
    fit_normalizer,
    load_csv,
    new_corpus,
    split_pool,
)
from netactive.runner import extract_stream_arrivals


def make_samples(n, n_features=3, seed=0):
    rng = np.random.default_rng(seed)
    corpus = new_corpus(n, n_features)
    for i in range(n):
        corpus.features[i], corpus.label[i] = rng.normal(size=n_features), abs(rng.normal()) * 10
    return corpus


def as_corpus(samples):
    """The corpus of `samples`' ids, features and labels (None as nan)."""
    corpus = new_corpus(len(samples), len(samples[0].features))
    corpus.id = [s.id for s in samples]
    corpus.features = [s.features for s in samples]
    corpus.label = [np.nan if s.label is None else s.label for s in samples]
    return corpus


class TestLoadCsv:
    def test_three_row_parse(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,tput\n1,2,10\n3,4,20\n5,6,30\n")
        result = load_csv(str(path), "tput")
        assert len(result.samples) == 3
        assert result.feature_names == ["a", "b"]
        np.testing.assert_array_equal(
            [s.label for s in result.samples], [10.0, 20.0, 30.0]
        )
        np.testing.assert_array_equal(result.samples[1].features, [3.0, 4.0])
        assert [s.id for s in result.samples] == [0, 1, 2]

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_csv("/does/not/exist.csv", "tput")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="target column"):
            load_csv(str(path), "tput")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,tput\n1,2,10\n1,oops,20\n")
        with pytest.raises(ValueError, match=r"line 3.*'b'"):
            load_csv(str(path), "tput", feature_columns=["a", "b"])

    def test_auto_mode_skips_non_numeric_columns(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,mode,tput\n1,walking,10\n2,driving,20\n")
        result = load_csv(str(path), "tput")
        assert result.feature_names == ["a"]

    def test_categorical_mapping(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,mode,tput\n1,walking,10\n2,driving,20\n")
        result = load_csv(
            str(path), "tput", categorical_maps={"mode": {"walking": 0, "driving": 1}}
        )
        assert result.feature_names == ["a", "mode"]
        np.testing.assert_array_equal(result.samples[1].features, [2.0, 1.0])

    def test_categorical_map_for_missing_column_rejected(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,mode,tput\n1,walking,10\n2,driving,20\n")
        with pytest.raises(ValueError, match=r"toy\.csv: categorical column 'nosuch' not in"):
            load_csv(str(path), "tput", categorical_maps={"nosuch": {"walking": 0}})

    def test_explicit_feature_columns_preserve_order(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,c,tput\n1,2,3,10\n4,5,6,20\n")
        result = load_csv(str(path), "tput", feature_columns=["c", "a"])
        assert result.feature_names == ["c", "a"]
        np.testing.assert_array_equal(result.samples[0].features, [3.0, 1.0])

    def test_missing_values_rejected_and_counted(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,tput\n1,2,10\n,4,20\n5,6,\n7,8,40\n")
        result = load_csv(str(path), "tput")
        assert result.rejected_rows == 2
        assert len(result.samples) == 2
        assert [s.id for s in result.samples] == [0, 1]  # ids stay sequential

    @pytest.mark.parametrize("header, target", [("a,b,a,tput", "tput"), ("a,tput,b,tput", "tput")])
    def test_repeated_header_name_rejected(self, tmp_path, header, target):
        # a repeated name used to read its last column, for a feature or the target
        path = tmp_path / "toy.csv"
        path.write_text(f"{header}\n1,2,3,10\n4,5,6,20\n")
        repeated = "a" if header.startswith("a,b,a") else "tput"
        with pytest.raises(ValueError, match=rf"toy\.csv: header repeats column '{repeated}'"):
            load_csv(str(path), target)

    def test_row_longer_than_header_rejected(self, tmp_path):
        # its extra cells used to be dropped, and the row loaded
        path = tmp_path / "toy.csv"
        path.write_text("a,mode,tput\n1,walking,10\n3,walking,30,99\n")
        with pytest.raises(ValueError, match=r"toy\.csv: line 3 has 4 cells, the header 3"):
            load_csv(str(path), "tput", categorical_maps={"mode": {"walking": 0}})

    def test_row_shorter_than_header_dropped_and_counted(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,tput\n1,2,10\n3,4\n5,6,30\n")
        result = load_csv(str(path), "tput")
        assert result.rejected_rows == 1
        assert result.samples.label.tolist() == [10.0, 30.0]

    def test_blank_lines_skipped_not_counted(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("a,b,tput\n1,2,10\n\n3,4,20\n\n")
        result = load_csv(str(path), "tput")
        assert result.rejected_rows == 0
        assert result.samples.label.tolist() == [10.0, 20.0]
        assert result.samples.id.tolist() == [0, 1]

    @pytest.mark.parametrize("text, message", [
        ("1,2,10\n\n\n1,oops,20", "line 5, column 'b': cannot parse 'oops'"),
        ("1,2,10\n\n\n1,2,-20", "line 5, column 'tput': negative target"),
        ("1,2,10\n\n\n1,2,20,9", "line 5 has 4 cells, the header 3"),
        # quoted cells span lines: the bad record takes lines 5 and 6
        ('1,2,10\n"3\n",4,20\n1,"o\nops",30', "line 5, column 'b': cannot parse"),
    ])
    def test_error_after_blank_line_names_physical_line(self, tmp_path, text, message):
        path = tmp_path / "toy.csv"
        path.write_text(f"a,b,tput\n{text}\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            load_csv(str(path), "tput", feature_columns=["a", "b"])

    def test_each_cell_parsed_once(self, tmp_path, monkeypatch):
        calls = []
        real = dataset._parse_cell
        monkeypatch.setattr(dataset, "_parse_cell",
                            lambda cell, mapping: calls.append(cell) or real(cell, mapping))
        rows = [[str(i), str(2 * i), f"note{i}", str(10 + i)] for i in range(50)]
        path = tmp_path / "toy.csv"
        path.write_text("a,b,note,tput\n" + "".join(",".join(r) + "\n" for r in rows))
        result = load_csv(str(path), "tput")
        assert result.feature_names == ["a", "b"] and len(result.samples) == 50
        # auto mode once parsed each selected cell twice: to pick columns, then per row
        assert sorted(calls) == sorted(cell for row in rows for cell in row)
        calls.clear()
        load_csv(str(path), "tput", feature_columns=["b"])
        assert sorted(calls) == sorted(cell for row in rows for cell in (row[1], row[3]))


class TestSplitPool:
    def test_floor_arithmetic_small(self):
        pool = split_pool(make_samples(100), 0.2, 0.2, rng_seed=0)
        assert len(pool.test) == 20
        assert len(pool.labeled) == 16
        assert len(pool.unlabeled) == 64

    def test_case_study_scale_counts(self):
        # floor arithmetic on the published split fractions
        n = 68_118
        n_test = int(np.floor(n * 0.2))
        n_labeled = int(np.floor((n - n_test) * 0.2))
        assert (n_test, n_labeled, n - n_test - n_labeled) == (13_623, 10_899, 43_596)
        corpus = new_corpus(n, 1)
        corpus.label = 1.0
        pool = split_pool(corpus, 0.2, 0.2, rng_seed=1)
        assert len(pool.test) == 13_623
        assert len(pool.labeled) == 10_899
        assert len(pool.unlabeled) == 43_596

    def test_determinism(self):
        samples = make_samples(50)
        a = split_pool(samples, 0.2, 0.3, rng_seed=42)
        b = split_pool(samples, 0.2, 0.3, rng_seed=42)
        for part in ("test", "labeled", "unlabeled"):
            assert np.array_equal(getattr(a, part), getattr(b, part))

    def test_unlabeled_labels_hidden(self):
        pool = split_pool(make_samples(50), 0.2, 0.2, rng_seed=0)
        for sid in pool.unlabeled:
            assert pool.samples[sid].label is None
            assert pool.has_hidden_label(sid)
        for sid in np.concatenate([pool.labeled, pool.test]):
            assert pool.samples[sid].label is not None

    def test_seed_marked_iteration_zero(self):
        pool = split_pool(make_samples(50), 0.2, 0.2, rng_seed=0)
        assert all(pool.samples[sid].iteration_acquired == 0 for sid in pool.labeled)

    def test_duplicate_ids_named(self):
        samples = make_samples(20)
        samples.id[7] = 3
        with pytest.raises(ValueError, match="duplicate sample id 3"):
            split_pool(samples, 0.2, 0.2, rng_seed=0)

    @pytest.mark.parametrize("field, row, value, message", [
        ("id", 4, -1, "sample -1: ids must be non-negative"),
        ("id", 6, 2, "duplicate sample id 2"),
        ("label", 5, -1.0, "sample 5: label must be finite and non-negative"),
        ("label", 5, np.inf, "sample 5: label must be finite and non-negative"),
    ], ids=["negative_id", "repeated_id", "negative_label", "infinite_label"])
    def test_bad_corpus_record_named(self, field, row, value, message):
        # a record array has no per-row guard, and id -1 would index the last row
        corpus = make_samples(20)
        getattr(corpus, field)[row] = value
        for build in (lambda: split_pool(corpus, 0.2, 0.2, rng_seed=0),
                      lambda: DataPool(corpus, labeled=corpus.id, unlabeled=[], test=[])):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message

    def test_degenerate_fraction(self):
        with pytest.raises(ValueError, match="degenerate"):
            split_pool(make_samples(10), 0.05, 0.5, rng_seed=0)

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="at least 10"):
            split_pool(make_samples(5), 0.2, 0.2, rng_seed=0)

    @given(
        n=st.integers(min_value=20, max_value=300),
        tf=st.floats(min_value=0.1, max_value=0.5),
        slf=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n, tf, slf, seed):
        samples = new_corpus(n, 2)
        samples.id += 7
        samples.label = 1.0
        pool = split_pool(samples, tf, slf, rng_seed=seed)
        ids = {s.id for s in samples}
        labeled, unlabeled, test = set(pool.labeled), set(pool.unlabeled), set(pool.test)
        assert labeled | unlabeled | test == ids
        assert not (labeled & unlabeled)
        assert not (labeled & test)
        assert not (unlabeled & test)
        assert len(pool.test) == int(np.floor(n * tf))


class TestDataPool:
    def test_disjointness_enforced(self):
        s = make_samples(3)
        with pytest.raises(AssertionError, match="disjoint"):
            DataPool(s, labeled={0, 1}, unlabeled={1}, test={2})

    def test_unknown_id_rejected(self):
        s = make_samples(3)
        with pytest.raises(AssertionError, match="unknown ids"):
            DataPool(s, labeled={0}, unlabeled={1}, test={2, 9})

    def test_inconsistent_feature_lengths_rejected(self):
        # a corpus has one width, so a row of another can only be added
        pool = DataPool(as_corpus([Sample(0, [1.0, 2.0], 1.0)]), labeled={0}, unlabeled=set(),
                        test=set())
        with pytest.raises(ValueError, match="sample 1: inconsistent feature lengths"):
            pool.add([1], [[1.0]], [1.0], "unlabeled", ORIGIN_INGESTED, -1)

    def test_duplicate_ids_rejected(self):
        samples = as_corpus([Sample(0, [1.0], 1.0), Sample(0, [2.0], 1.0)])
        with pytest.raises(ValueError, match="duplicate sample id 0"):
            DataPool(samples, labeled={0}, unlabeled=set(), test=set())

    def test_first_repeated_id_in_input_order_named(self):
        samples = as_corpus([Sample(i, [float(i)], 1.0) for i in (2, 9, 4, 9, 4)])
        with pytest.raises(ValueError, match="duplicate sample id 9"):
            DataPool(samples, labeled={2, 4, 9}, unlabeled=set(), test=set())

    def test_sample_outside_every_partition_rejected(self):
        with pytest.raises(ValueError, match="sample 2 is in no partition"):
            DataPool(make_samples(3), labeled={0}, unlabeled={1}, test=set())

    def test_id_repeated_within_one_partition_accepted(self):
        pool = DataPool(make_samples(4), labeled=[1, 0, 1], unlabeled=[2, 2], test=[3])
        assert pool.labeled.tolist() == [0, 1] and pool.unlabeled.tolist() == [2]

    def test_id_in_two_partitions_rejected(self):
        with pytest.raises(AssertionError, match="^labeled/unlabeled/test sets are not disjoint$"):
            DataPool(make_samples(4), labeled=[0, 1], unlabeled=[2], test=[3, 0])

    def test_unknown_ids_named_sorted_before_overlap(self):
        # ids -3 and 5 are below and inside the id range but not in the corpus
        with pytest.raises(AssertionError) as info:
            DataPool(as_corpus([Sample(i, [1.0], 1.0) for i in (0, 1, 2, 8)]),
                     labeled=[0, 12, -3, 9], unlabeled=[1, 7, 2**40, 0], test=[5, 2, 5])
        assert str(info.value) == "partition references unknown ids: [-3, 5, 7, 9, 12]"

    def test_overlap_found_before_orphan(self):
        with pytest.raises(AssertionError, match="not disjoint"):
            DataPool(make_samples(4), labeled=[0], unlabeled=[0], test=[3])

    def test_first_orphan_in_corpus_order_named(self):
        corpus = as_corpus([Sample(i, [float(i)], 1.0) for i in (9, 4, 2, 7)])
        with pytest.raises(ValueError, match="^sample 4 is in no partition$"):
            DataPool(corpus, labeled=[9], unlabeled=[7], test=[])

    def test_non_contiguous_ids_build(self):
        ids = [10, 3, 7, 42, 0]
        corpus = as_corpus([Sample(i, [float(i), -float(i)], float(i)) for i in ids])
        pool = DataPool(corpus, labeled={42, 3}, unlabeled=[10, 0], test=[7])
        assert (pool.labeled.tolist(), pool.unlabeled.tolist(), pool.test.tolist()) == (
            [3, 42], [0, 10], [7])
        np.testing.assert_array_equal(pool.feature_matrix(ids), corpus.features)
        assert sorted(pool.samples) == sorted(ids) and pool.next_id == 43
        for sid in (1, 5, 41):
            with pytest.raises(KeyError, match=f"no sample with id {sid}"):
                pool.feature_matrix([sid])

    def test_one_absent_id_named(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        sid = int(pool.unlabeled[0])
        np.testing.assert_array_equal(pool.feature_matrix([sid]), pool._features[[sid]])
        pool.add([25], np.ones((1, 3)), [1.0], "unlabeled", ORIGIN_INGESTED, -1)
        with pytest.raises(KeyError, match="^'no sample with id 22'$"):
            pool.feature_matrix([22])

    def test_first_absent_of_many_ids_named_in_given_order(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        pool.add([25], np.ones((1, 3)), [1.0], "unlabeled", ORIGIN_INGESTED, -1)
        with pytest.raises(KeyError, match="^'no sample with id 23'$"):
            pool.feature_matrix([3, 25, 23, 21, 22])
        with pytest.raises(KeyError, match="^'no sample with id 21'$"):
            pool.acquisitions([0, 1, 21, 23])

    def test_arriving_id_counts_as_absent(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        pool.add([20, 21], np.ones((2, 3)), [1.0, 2.0], "arriving", ORIGIN_COLLECTED, -1)
        for ids, named in (([21], 21), ([0, 21, 20], 21), ([20, 5], 20)):
            with pytest.raises(KeyError, match=f"^'no sample with id {named}'$"):
                pool.feature_matrix(ids)
        pool.admit(21)
        np.testing.assert_array_equal(pool.feature_matrix([0, 21]), pool._features[[0, 21]])

    def test_non_finite_features_rejected_at_construction(self):
        samples = make_samples(4)
        samples.features[2, 1] = np.nan
        with pytest.raises(ValueError, match="sample 2: non-finite"):
            DataPool(samples, labeled={0, 1}, unlabeled={2}, test={3})

    @pytest.mark.parametrize("partition", ["unlabeled", "labeled", "arriving"],
                             ids=lambda partition: f"add_{partition}")
    def test_non_finite_features_rejected_on_add(self, partition):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        sid = pool.next_id
        with pytest.raises(ValueError, match=f"sample {sid}: non-finite"):
            pool.add([sid], [[0.0, np.inf, 1.0]], [1.0], partition, ORIGIN_INGESTED, -1)
        assert sid not in pool.samples and pool.next_id == sid  # a failed add takes no id
        pool.add([sid], np.zeros((1, 3)), [1.0], partition, ORIGIN_INGESTED, -1)

    @pytest.mark.parametrize("sid, truth, partition, origin, message", [
        (20, -1.0, "unlabeled", ORIGIN_INGESTED,
         "sample 20: label must be finite and non-negative"),
        (20, np.nan, "labeled", ORIGIN_INGESTED, "sample 20: labeled sample requires a label"),
        (-1, 1.0, "labeled", ORIGIN_INGESTED, "sample -1: ids must be non-negative"),
        (20, 1.0, "unlabeled", "guessed", "unknown origin 'guessed'"),
        (20, 1.0, "test", ORIGIN_INGESTED, "cannot add to partition 'test'"),
    ], ids=["negative_label", "nan_label_on_labeled", "negative_id", "unknown_origin",
            "test_partition"])
    def test_bad_row_rejected_on_add(self, sid, truth, partition, origin, message):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        before = {name: np.copy(v) for name, v in vars(pool).items() if isinstance(v, np.ndarray)}
        with pytest.raises(ValueError) as info:
            pool.add([sid], np.zeros((1, 3)), [truth], partition, origin, -1)
        assert str(info.value).startswith(message)
        assert pool.next_id == 20 and all(
            np.array_equal(getattr(pool, name), v, equal_nan=True) for name, v in before.items())

    @pytest.mark.parametrize("ids, features, truth", [
        ([20, 21], np.zeros((1, 3)), [1.0, 1.0]),
        ([20], np.zeros((1, 3)), 1.0),
        ([20], np.zeros(3), [1.0]),
    ], ids=["short_features", "scalar_truth", "one_dim_features"])
    def test_block_shape_rejected_on_add(self, ids, features, truth):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        with pytest.raises(ValueError, match="one row per sample"):
            pool.add(ids, features, truth, "unlabeled", ORIGIN_INGESTED, -1)
        assert pool.next_id == 20

    def test_wrong_feature_length_rejected_on_add(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        with pytest.raises(ValueError, match="inconsistent feature lengths"):
            pool.add([pool.next_id], [[0.0, 1.0]], [1.0], "unlabeled", ORIGIN_INGESTED, -1)

    def test_samples_view_builds_records_on_access(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        assert len(pool.samples) == 20 and sorted(pool.samples) == list(range(20))
        record = pool.samples[5]
        record.features[:] = 99.0  # a copy: the store is not written through it
        assert not np.any(pool.samples[5].features == 99.0)
        with pytest.raises(TypeError):
            pool.samples[5] = record
        with pytest.raises(KeyError):
            pool.samples[20]

    def test_adding_rows_grows_storage_geometrically(self):
        pool = DataPool(make_samples(8), labeled=range(4), unlabeled=range(4, 8), test=[])
        grown = 0
        for _ in range(3000):
            before = pool._features
            pool.add([pool.next_id], np.zeros((1, 3)), [1.0], "unlabeled", ORIGIN_INGESTED, -1)
            grown += pool._features is not before
        # 1/8 steps from 8 to 3008 rows: ~50 reallocations, not 3000,
        # and at most 1/8 of the capacity left over
        assert 0 < grown < 60
        assert len(pool._features) <= 3008 * 9 // 8 + 1

    def test_next_id_stays_above_extracted_ids(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        top = pool.next_id + 5
        pool.add([top], np.zeros((1, 3)), [2.0], "unlabeled", ORIGIN_INGESTED, -1)
        arrivals = extract_stream_arrivals(pool, 3, rng_seed=1)
        assert top not in pool.samples and not len(pool.unlabeled)
        assert pool.next_id == top + 1
        for sid in arrivals:  # each arrival carries its ground truth, hidden
            pool.admit(sid)
            assert pool.has_hidden_label(sid)

    def test_arrival_is_no_member_until_admitted(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        sid = pool.next_id
        pool.add([sid], np.ones((1, 3)), [4.0], "arriving", ORIGIN_COLLECTED, 2)
        assert sid not in pool.samples and len(pool.samples) == 20
        assert sid not in pool.unlabeled and not pool.has_hidden_label(sid)
        with pytest.raises(KeyError, match=f"no sample with id {sid}"):
            pool.feature_matrix([sid])
        with pytest.raises(ValueError, match="not in the unlabeled set"):
            pool.reveal(sid, iteration=3)
        with pytest.raises(ValueError, match=f"sample id {sid} already present"):
            pool.add([sid], np.ones((1, 3)), [4.0], "arriving", ORIGIN_COLLECTED, 2)
        pool.check_invariants()
        pool.admit(sid)
        assert sid in pool.unlabeled and pool.samples[sid].label is None
        np.testing.assert_array_equal(pool.feature_matrix([sid]), np.ones((1, 3)))
        assert pool.reveal(sid, iteration=3) == 4.0
        record = pool.samples[sid]
        assert (record.origin, record.iteration_acquired) == (ORIGIN_COLLECTED, 3)

    @pytest.mark.parametrize("partition", ["labeled", "unlabeled", "test", "absent", "admitted"])
    def test_admit_refuses_non_arrivals(self, partition):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        pool.add([20], np.zeros((1, 3)), [1.0], "arriving", ORIGIN_INGESTED, -1)
        if partition == "admitted":
            pool.admit(20)
        sid = {"absent": 21, "admitted": 20}.get(partition)
        sid = int(getattr(pool, partition)[0]) if sid is None else sid
        codes = pool._part.copy()
        with pytest.raises(ValueError, match=f"^sample {sid} is not arriving$"):
            pool.admit(sid)
        np.testing.assert_array_equal(pool._part, codes)

    def test_reveal_moves_partition(self):
        samples = make_samples(20)
        pool = split_pool(samples, 0.2, 0.2, rng_seed=0)
        sid = sorted(pool.unlabeled)[0]
        assert pool.has_hidden_label(sid) and pool.samples[sid].label is None
        label = pool.reveal(sid, iteration=3)
        assert label == samples[sid].label  # the ground truth, now visible
        assert sid in pool.labeled and sid not in pool.unlabeled
        assert pool.samples[sid].label == label
        assert pool.samples[sid].iteration_acquired == 3
        assert not pool.has_hidden_label(sid)
        pool.check_invariants()

    def test_copy_is_independent(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        pool.normalizer = fit_normalizer(pool)
        twin = pool.copy()
        columns = {name: np.copy(v) for name, v in vars(pool).items() if isinstance(v, np.ndarray)}
        twin.reveal(int(twin.unlabeled[0]), iteration=1)
        twin.add([twin.next_id], np.zeros((1, 3)), [1.0], "unlabeled", ORIGIN_INGESTED, -1)
        for name, values in columns.items():
            np.testing.assert_array_equal(getattr(pool, name), values)
        assert pool.next_id == 20 and twin.next_id == 21
        assert len(twin.labeled) == len(pool.labeled) + 1
        assert twin.normalizer is pool.normalizer

    def test_reveal_rejects_non_unlabeled(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        sid = sorted(pool.test)[0]
        with pytest.raises(ValueError, match="not in the unlabeled set"):
            pool.reveal(sid, iteration=1)

    def test_add_unlabeled_hides_label(self):
        pool = split_pool(make_samples(20), 0.2, 0.2, rng_seed=0)
        sid = pool.next_id
        pool.add([sid], np.zeros((1, 3)), [5.0], "unlabeled", ORIGIN_INGESTED, -1)
        assert pool.samples[sid].label is None
        assert pool.reveal(sid, iteration=1) == 5.0


class _ReferencePool:
    """The pool's contract as plain dicts and sets."""

    def __init__(self, samples, labeled, unlabeled, test):
        self.rows = {s.id: [s.features.copy(), s.label, s.origin, s.iteration_acquired]
                     for s in samples}
        self.labeled, self.unlabeled, self.test = set(labeled), set(unlabeled), set(test)
        self.hidden = {}
        for sid in self.unlabeled:
            self.hidden[sid], self.rows[sid][1] = self.rows[sid][1], None
        self.next_id = max(self.rows) + 1

    def add(self, sample, partition):
        self.rows[sample.id] = [sample.features.copy(), sample.label, sample.origin,
                                sample.iteration_acquired]
        partition.add(sample.id)
        if partition is self.unlabeled:
            self.hidden[sample.id], self.rows[sample.id][1] = sample.label, None
        self.next_id = max(self.next_id, sample.id + 1)

    def extract(self, n, rng_seed):
        """Remove every unlabeled sample; return the first n shuffled ones as
        (id, row, hidden truth), for admit."""
        ids = sorted(self.unlabeled)
        order = np.random.default_rng(rng_seed).permutation(len(ids))
        arrivals = [(ids[i], self.rows[ids[i]], self.hidden.get(ids[i])) for i in order[:n]]
        for sid in ids:
            self.rows.pop(sid)
            self.hidden.pop(sid, None)
        self.unlabeled.clear()
        return arrivals

    def admit(self, sid, row, truth):
        self.rows[sid] = row
        self.unlabeled.add(sid)
        self.hidden[sid] = truth


def _assert_matches(pool, ref):
    for name in ("labeled", "unlabeled", "test"):
        assert np.array_equal(getattr(pool, name), sorted(getattr(ref, name)))
    assert pool.next_id == ref.next_id
    assert list(pool.samples) == sorted(ref.rows)
    for sid, (features, label, origin, iteration) in ref.rows.items():
        record = pool.samples[sid]
        assert np.array_equal(record.features, features)
        assert (record.label, record.origin, record.iteration_acquired) == (
            label, origin, iteration)
        assert pool.has_hidden_label(sid) == (sid in ref.hidden and ref.hidden[sid] is not None)
    assert not pool.has_hidden_label(ref.next_id)


class TestPoolAgainstReference:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["unlabeled", "labeled", "annotate", "extract"]),
                st.integers(min_value=0, max_value=2**31),
            ),
            max_size=20,
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=150, deadline=None)
    def test_operation_sequences(self, ops, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 12))
        samples = [
            Sample(i, rng.normal(size=2), None if rng.random() < 0.2 else float(rng.random()))
            for i in range(n)
        ]
        codes = rng.integers(0, 3, size=n)
        for s, code in zip(samples, codes):
            if code == 0 and s.label is None:
                s.label = 1.0  # labeled samples carry labels
        parts = [[s.id for s, c in zip(samples, codes) if c == k] for k in range(3)]
        pool = DataPool(as_corpus(samples), *parts)
        ref = _ReferencePool(samples, *parts)
        _assert_matches(pool, ref)
        # the same rows written one at a time: the test rows by the
        # constructor, every other row through a one-row add
        in_test = [s for s, c in zip(samples, codes) if c == 2]
        rowwise = DataPool(as_corpus(in_test) if in_test else new_corpus(0, 2), [], [], parts[2])
        for s, code in zip(samples, codes):
            if code < 2:
                rowwise.add([s.id], [s.features], [np.nan if s.label is None else s.label],
                            ["labeled", "unlabeled"][code], ORIGIN_INGESTED, -1)
        assert rowwise.next_id == pool.next_id == n
        for name, column in vars(pool).items():
            if isinstance(column, np.ndarray):
                other = getattr(rowwise, name)
                assert column.dtype == other.dtype and len(column) == n
                assert column.tobytes() == other[:n].tobytes(), name  # nan included, bit for bit
        for op, draw in ops:
            r = np.random.default_rng(draw)
            if op in ("unlabeled", "labeled"):
                sid = ref.next_id + int(r.integers(0, 3))  # ids may skip ahead
                label = float(r.random()) if op == "labeled" or r.random() < 0.8 else None
                origin = [ORIGIN_INGESTED, ORIGIN_COLLECTED, ORIGIN_SYNTHESIZED][r.integers(3)]
                iteration = None if r.random() < 0.5 else int(r.integers(0, 5))
                sample = Sample(sid, r.normal(size=2), label, origin, iteration)
                row = ([sid], sample.features[None, :], [np.nan if label is None else label])
                pool.add(*row, op, origin, -1 if iteration is None else iteration)
                ref.add(sample, getattr(ref, op))
                with pytest.raises(ValueError, match="already present"):
                    pool.add(*row, "unlabeled", origin, -1)
            elif op == "annotate":
                hidden = sorted(sid for sid, label in ref.hidden.items() if label is not None)
                if not hidden:
                    continue
                sid = hidden[r.integers(len(hidden))]
                iteration = int(r.integers(0, 9))
                label = pool.reveal(sid, iteration)
                assert label == ref.hidden.pop(sid)
                assert not pool.has_hidden_label(sid)
                ref.unlabeled.discard(sid)
                ref.labeled.add(sid)
                ref.rows[sid][1], ref.rows[sid][3] = label, iteration
            else:
                k = int(r.integers(0, len(ref.unlabeled) + 1))
                arrivals = extract_stream_arrivals(pool, k, rng_seed=draw)
                expected = ref.extract(k, draw)
                assert arrivals == [sid for sid, _, _ in expected]
                pool.check_invariants()
                _assert_matches(pool, ref)  # no arrival is a member before admission
                for sid, row, truth in expected:
                    pool.admit(sid)
                    ref.admit(sid, row, truth)
                    assert pool.has_hidden_label(sid) == (truth is not None)
                    if truth is not None:  # the truth it carries, read on a copy
                        assert pool.copy().reveal(sid, 0) == truth
            pool.check_invariants()
            _assert_matches(pool, ref)


class TestNormalizer:
    def test_two_point_stats(self):
        pool = DataPool(
            as_corpus([Sample(0, [0.0], 1.0), Sample(1, [2.0], 1.0)]),
            labeled={0, 1},
            unlabeled=set(),
            test=set(),
        )
        norm = fit_normalizer(pool)
        np.testing.assert_allclose(norm.means, [1.0])
        np.testing.assert_allclose(norm.stds, [1.0])

    def test_constant_feature_clamped(self):
        pool = DataPool(
            as_corpus([Sample(0, [5.0], 1.0), Sample(1, [5.0], 1.0)]),
            labeled={0, 1},
            unlabeled=set(),
            test=set(),
        )
        norm = fit_normalizer(pool)
        np.testing.assert_allclose(norm.means, [5.0])
        assert norm.stds[0] == 1e-8
        np.testing.assert_array_equal(norm.normalize([[5.0], [5.0]]), [[0.0], [0.0]])

    def test_refit_statistics_on_random_data(self):
        # independent recomputation of the post-transform statistics
        rng = np.random.default_rng(3)
        samples = new_corpus(1000, 4)
        samples.features, samples.label = rng.normal(5.0, 3.0, size=(1000, 4)), 1.0
        pool = DataPool(samples, labeled={s.id for s in samples}, unlabeled=set(), test=set())
        norm = fit_normalizer(pool)
        z = norm.normalize(pool.feature_matrix(sorted(pool.labeled)))
        assert np.all(np.abs(z.mean(axis=0)) < 1e-6)
        assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)

    def test_fit_excludes_test_features(self):
        samples = as_corpus([Sample(0, [0.0], 1.0), Sample(1, [2.0], 1.0), Sample(2, [100.0], 1.0)])
        pool = DataPool(samples, labeled={0, 1}, unlabeled=set(), test={2})
        norm = fit_normalizer(pool)
        np.testing.assert_allclose(norm.means, [1.0])

    @pytest.mark.parametrize("field", ["means", "stds"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_statistics_rejected(self, field, bad):
        stats = {"means": np.zeros(2), "stds": np.ones(2)}
        stats[field][1] = bad
        with pytest.raises(ValueError, match="finite"):
            Normalizer(**stats)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 50.0, size=(30, 5))
        norm = Normalizer(means=x.mean(axis=0), stds=np.maximum(x.std(axis=0), 1e-8))
        np.testing.assert_allclose(norm.denormalize(norm.normalize(x)), x, atol=1e-9)
