import io
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import write_sparse_text
import vvlearn.dataio as dataio_module
from vvlearn.dataio import (
    CSR,
    Dataset,
    ParseError,
    normalize_rows,
    parse_sparse_text,
    split,
    subsample,
    synth_gen,
    _unit_rows,
)


def parse_text(text, task, **kwargs):
    return parse_sparse_text(io.StringIO(text), task, **kwargs)


def ragged_rows(rows, d, seed):
    """A multiclass Dataset whose row i holds the values rows[i] on sorted random columns."""
    rng = np.random.default_rng(seed)
    cols = np.concatenate([np.sort(rng.choice(d, size=len(values), replace=False)) for values in rows])
    indptr = np.cumsum([0] + [len(values) for values in rows])
    X = sp.csr_matrix((np.concatenate(rows), cols, indptr), shape=(len(rows), d))
    return Dataset(X, np.zeros(len(rows), dtype=int), 2, "mcc")


def identity(c):
    """The label map of c classes, or c multilabel positions, kept as they are."""
    return {i: i for i in range(c)}


def row(ds, i):
    """(column indices, values) of row i."""
    X = ds.X
    lo, hi = X.indptr[i], X.indptr[i + 1]
    return X.indices[lo:hi], X.data[lo:hi]


def one_row(indices, values, d=5):
    return sp.csr_matrix(
        (np.asarray(values, dtype=float), np.asarray(indices), np.array([0, len(indices)])),
        shape=(1, d),
    )


class TestDatasetConstructor:
    @pytest.mark.parametrize(
        "indices,values",
        [
            ([2, 1], [1.0, 1.0]),        # not increasing
            ([1, 1], [1.0, 1.0]),        # duplicate
            ([-1], [1.0]),               # negative index
            ([5], [1.0]),                # past dim
            ([0, 1], [1.0]),             # length mismatch
            ([0], [np.nan]),             # non-finite
            ([0], [np.inf]),
        ],
    )
    def test_rejects_malformed_rows(self, indices, values):
        with pytest.raises(ValueError):
            Dataset(one_row(indices, values), np.array([0]), 2, "mcc")

    def test_dense_rows_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dense = rng.standard_normal((3, 7))
            dense[rng.random((3, 7)) < 0.4] = 0.0
            ds = Dataset(dense, np.array([0, 1, 0]), 2, "mcc")
            assert ds.d == 7 and len(ds) == 3
            assert np.array_equal(oracles.scipy_csr(ds.X).toarray(), dense)

    def test_kappa_is_largest_row_norm(self):
        ds = Dataset(np.array([[3.0, 4.0], [0.0, 1.0]]), np.array([0, 1]), 2, "mcc")
        assert ds.kappa == 5.0

    def test_empty_rows(self):
        ds = Dataset(sp.csr_matrix((2, 3)), np.array([0, 1]), 2, "mcc")
        assert oracles.scipy_csr(ds.X).nnz == 0 and ds.kappa == 0.0
        assert len(Dataset(sp.csr_matrix((0, 3)), np.zeros(0, dtype=int), 2, "mcc")) == 0

    def test_kappa_skips_empty_rows(self):
        X = sp.csr_matrix(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [0.0, 4.0, 0.0]]))
        assert Dataset(X, np.zeros(4, dtype=int), 2, "mcc").kappa == 4.0

    def test_kappa_equals_per_row_norm_loop(self):
        rng = np.random.default_rng(19)
        for trial in range(300):
            n, d = int(rng.integers(0, 30)), int(rng.integers(1, 25))
            X = sp.random(n, d, density=rng.uniform(0.0, 1.0), format="csr", random_state=trial)
            ds = Dataset(X * 10.0 ** rng.uniform(-5, 5), np.zeros(n, dtype=int), 2, "mcc")
            for data in (ds, normalize_rows(ds)):
                assert data.kappa == oracles.max_row_norm(data.X)

    def test_row_sq_norms_match_the_per_row_dot(self, monkeypatch):
        # blocks of at most 40 entries, so the rows of one nnz span several blocks
        monkeypatch.setattr(dataio_module, "_NORMALIZE_CHUNK_ENTRIES", 40)
        rng = np.random.default_rng(25)
        rows = [rng.standard_normal(int(rng.integers(0, 30))) * 10.0 ** rng.uniform(-5, 5) for _ in range(500)]
        norms = ragged_rows(rows, d=30, seed=26).row_sq_norms
        assert norms.tobytes() == np.array([np.vecdot(values, values) for values in rows]).tobytes()

    def test_equality_is_exact(self):
        def make(v):
            return Dataset(one_row([1], [v], d=3), np.array([0]), 2, "mcc")

        assert make(0.5) == make(0.5)
        assert make(0.5) == make(0.5 + 1e-17)  # 0.5 + 1e-17 rounds back to 0.5
        assert make(0.5) != make(np.nextafter(0.5, 1))
        other_label = Dataset(one_row([1], [0.5], d=3), np.array([1]), 2, "mcc")
        assert make(0.5) != other_label

    @pytest.mark.parametrize("label", [2, -1])
    def test_class_id_out_of_range(self, label):
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([label]), 2, "mcc")

    def test_class_ids_must_be_integers(self):
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([0.5]), 2, "mcc")

    def test_rejects_non_sign_entries(self):
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([[1, 0, -1]]), 3, "mlc")

    def test_sign_matrix_shape_checked(self):
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([[1, -1, 1]]), 4, "mlc")
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([1, -1]), 2, "mlc")

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            Dataset(one_row([0], [1.0]), np.array([0]), 2, "other")

    @pytest.mark.parametrize(
        "indptr",
        [[0, 1], [1, 2, 2], [0, 2, 1], [0, 1, 3], [0, 1, 1]],  # short, not from 0, falling, past, short of the entries
    )
    def test_rejects_a_bad_row_pointer(self, indptr):
        X = CSR(np.ones(2), np.array([0, 1]), np.array(indptr), (2, 3))
        with pytest.raises(ValueError):
            Dataset(X, np.zeros(2, dtype=int), 2, "mcc")

    def test_holds_the_arrays_scipy_would(self):
        rng = np.random.default_rng(27)
        for trial in range(100):
            dense = np.where(rng.random((6, 5)) < 0.5, rng.standard_normal((6, 5)), 0.0)
            dense[rng.random((6, 5)) < 0.1] = -0.0  # dropped, as scipy drops it
            want = sp.csr_matrix(dense)
            wide = CSR(want.data, want.indices.astype(np.int64), want.indptr, want.shape)
            for source in (dense, want, wide, want.tocsc(), sp.coo_matrix(dense)):
                X = Dataset(source, np.zeros(6, dtype=int), 2, "mcc").X
                assert isinstance(X, CSR) and X.shape == want.shape
                for got, expected in zip(X[:3], (want.data, want.indices, want.indptr)):
                    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()

    def test_long_row_norms_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS splits a dot of more than 10,000 entries across threads
        script = (
            "import hashlib, numpy as np; from vvlearn.dataio import Dataset, normalize_rows; "
            "ds = Dataset(np.random.default_rng(5).standard_normal((1, 50_000)), np.zeros(1, dtype=int), 2, 'mcc'); "
            "print(ds.row_sq_norms.tobytes().hex(), hashlib.sha256(normalize_rows(ds).X.data.tobytes()).hexdigest())"
        )
        path = os.pathsep.join([str(Path(dataio_module.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")])
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
            run = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


class TestParseMcc:
    def test_single_line_mapping(self):
        ds = parse_text("2 1:0.5 3:1.5\n", "mcc", label_map=identity(3))
        assert ds.task == "mcc" and len(ds) == 1
        assert ds.y[0] == 2  # ids 0..2 present in range: kept as-is
        indices, values = row(ds, 0)
        assert np.array_equal(indices, np.array([0, 2]))
        assert np.array_equal(values, np.array([0.5, 1.5]))

    def test_inferred_c_remaps_by_first_appearance(self):
        ds = parse_text("5 1:1.0\n9 1:1.0\n5 2:1.0\n", "mcc")
        assert ds.c == 2
        assert ds.y.tolist() == [0, 1, 0]
        assert ds.label_map == {5: 0, 9: 1}

    def test_inferred_contiguous_ids_stay_identity(self):
        ds = parse_text("1 1:1.0\n0 1:1.0\n2 2:1.0\n", "mcc")
        assert ds.c == 3
        assert ds.y.tolist() == [1, 0, 2]

    def test_given_map_is_used_as_it_is(self):
        ds = parse_text("7 1:1.0\n3 1:1.0\n", "mcc", label_map={3: 0, 7: 1, 5: 2})
        assert ds.c == 3
        assert ds.y.tolist() == [1, 0]
        assert ds.label_map == {3: 0, 7: 1, 5: 2}

    def test_id_outside_given_map_is_parse_error(self):
        with pytest.raises(ParseError, match="label id 7 "):
            parse_text("7 1:1.0\n3 1:1.0\n", "mcc", label_map=identity(2))

    def test_id_outside_given_map_is_parse_error_when_ids_are_dense(self):
        with pytest.raises(ParseError, match="label id 2 "):
            parse_text("0 1:1.0\n1 1:1.0\n2 1:1.0\n", "mcc", label_map=identity(2))

    def test_d_inferred_from_max_index(self):
        ds = parse_text("0 4:1.0\n1 2:1.0\n", "mcc")
        assert ds.d == 4

    def test_features_sorted_within_rows(self):
        ds = parse_text("0 3:1.5 1:2.0\n1 2:1.0 1:0.5\n", "mcc")
        assert np.array_equal(row(ds, 0)[0], [0, 2]) and np.array_equal(row(ds, 0)[1], [2.0, 1.5])
        assert np.array_equal(row(ds, 1)[0], [0, 1]) and np.array_equal(row(ds, 1)[1], [0.5, 1.0])

    def test_empty_feature_rows_kept(self):
        ds = parse_text("0\n1 2:1.0\n", "mcc")
        assert len(ds) == 2 and oracles.scipy_csr(ds.X)[0].nnz == 0 and ds.d == 2

    def test_comments_and_blank_lines_skipped(self):
        ds = parse_text("# header\n\n0 1:1.0\n# trailing\n1 1:2.0\n\n", "mcc")
        assert len(ds) == 2


class TestParseMlc:
    def test_sign_vector_mapping(self):
        ds = parse_text("1,3 2:1.0\n", "mlc", label_map=identity(4))
        assert np.array_equal(ds.y[0], np.array([1, -1, 1, -1], dtype=np.int8))
        indices, values = row(ds, 0)
        assert np.array_equal(indices, np.array([1]))
        assert np.array_equal(values, np.array([1.0]))

    def test_component_ids_are_one_based(self):
        with pytest.raises(ParseError) as err:
            parse_text("0,2 1:1.0\n", "mlc", label_map=identity(3))
        assert "line 1" in str(err.value)

    def test_duplicate_component_rejected(self):
        with pytest.raises(ParseError):
            parse_text("1,1 1:1.0\n", "mlc", label_map=identity(3))

    def test_c_inferred_from_largest_component(self):
        ds = parse_text("1,4 1:1.0\n2 2:1.0\n", "mlc")
        assert ds.c == 4
        assert np.array_equal(ds.y[0], np.array([1, -1, -1, 1], dtype=np.int8))

    def test_component_id_above_declared_c_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_text("1,5 1:1.0\n", "mlc", label_map=identity(4))
        assert "5" in str(err.value)

    def test_given_map_sets_c_past_the_largest_id(self):
        ds = parse_text("1,2 1:1.0\n", "mlc", label_map=identity(4))
        assert ds.c == 4 and ds.y.tolist() == [[1, 1, -1, -1]]


class TestParseErrors:
    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("0 1:0.5 1:0.7\n", "duplicate feature"),
            ("0 0:0.5\n", "1-based"),          # feature indices start at 1
            ("0 1:abc\n", "1:abc"),
            ("0 1=0.5\n", "1=0.5"),
            ("x 1:0.5\n", "class id"),
            ("0 1:nan\n", "finite"),
            ("0 1:inf\n", "finite"),
            ("0 99999999999999999999:1\n", "99999999999999999999"),  # past int64
        ],
    )
    def test_malformed_lines_carry_line_numbers(self, text, fragment):
        with pytest.raises(ParseError) as err:
            parse_text(text, "mcc")
        message = str(err.value)
        assert "line 1" in message
        assert fragment in message

    def test_first_bad_line_is_reported(self):
        with pytest.raises(ParseError) as err:
            parse_text("0 1:1.0\n0 1:x\nq 1:1.0\n", "mcc")
        assert "line 2" in str(err.value)

    def test_line_numbers_count_comments(self):
        with pytest.raises(ParseError) as err:
            parse_text("# one\n0 1:1.0\n0 1:1.0 1:2.0\n", "mcc")
        assert "line 3" in str(err.value)

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_text("", "mcc")
        with pytest.raises(ParseError):
            parse_text("# only a comment\n", "mcc")

    def test_explicit_d_bound_enforced(self):
        with pytest.raises(ParseError) as err:
            parse_text("0 9:1.0\n", "mcc", d=4)
        assert "9" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            parse_sparse_text(tmp_path / "nope.txt", "mcc")

    def test_bad_task_rejected(self):
        with pytest.raises(ValueError):
            parse_text("0 1:1.0\n", "other")


def outcome(parse, text, task, **kwargs):
    """The bytes of everything a parse of text (or of a path) returns, or the type and text of what it raises."""
    try:
        ds = parse(io.StringIO(text) if isinstance(text, str) else text, task, **kwargs)
    except Exception as err:  # the two parsers must fail alike, whatever the type
        return type(err).__name__, str(err)
    X = ds.X
    arrays = (X.indptr, X.indices, X.data, ds.y)
    return [(a.dtype.str, a.tobytes()) for a in arrays], X.shape, ds.c, ds.task, ds.label_map


def both(text, task, batch_chars=None, **kwargs):
    """The outcomes of the array parser (in batches of batch_chars characters, if given) and the per-token oracle."""
    with pytest.MonkeyPatch.context() as m:
        if batch_chars is not None:
            m.setattr(dataio_module, "_PARSE_BATCH_CHARS", batch_chars)
        new = outcome(parse_sparse_text, text, task, **kwargs)
    return new, outcome(oracles.per_token_parse, text, task, **kwargs)


@st.composite
def sparse_files(draw):
    """(text, task, kwargs) of a valid file: any row order of columns, comments, blank lines, CRLF or LF."""
    task = draw(st.sampled_from(["mcc", "mlc"]))
    d, c = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    lines, ids = [], set()
    for _ in range(draw(st.integers(1, 25))):
        columns = draw(st.lists(st.integers(1, d), unique=True, max_size=d))
        if draw(st.booleans()):
            columns.sort()
        if task == "mcc":
            head = draw(st.integers(-3, c + 5))
            ids.add(head)
            head = str(head)
        else:
            labels = draw(st.lists(st.integers(1, c), min_size=1, max_size=c, unique=True))
            ids.update(j - 1 for j in labels)
            head = ",".join(map(str, labels))
        feats = [f"{j}:{draw(value)!r}" for j in columns]
        lines.append(" ".join([head, *feats]) if draw(st.booleans()) else "\t".join([head, *feats]) + " ")
        lines += draw(st.lists(st.sampled_from(["", "   ", "# note 3:4", "#"]), max_size=2))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))
    kwargs = {}
    if draw(st.booleans()):
        kwargs["d"] = d + draw(st.integers(0, 3))
    if draw(st.booleans()):
        known = sorted(ids) + draw(st.lists(st.integers(50, 60), unique=True, max_size=2))
        kwargs["label_map"] = {i: k for k, i in enumerate(known)} if task == "mcc" else identity(max(ids) + 1)
    return text, task, kwargs


class TestParseAgainstOracle:
    """The array passes against the per-token parser they replaced: same dataset, or same error."""

    @settings(max_examples=150, deadline=None)
    @given(sparse_files(), st.sampled_from([None, 1, 24, 200]))
    def test_valid_files_parse_bit_for_bit(self, file, batch_chars):
        text, task, kwargs = file
        new, old = both(text, task, batch_chars, **kwargs)
        assert new == old and not isinstance(new[0], str)

    MALFORMED = [
        ("0 1:0.5 1:0.7\n", "mcc"),
        ("0 0:0.5\n", "mcc"),
        ("0 1:abc\n", "mcc"),
        ("0 1=0.5\n", "mcc"),
        ("x 1:0.5\n", "mcc"),
        ("0 1:nan\n", "mcc"),
        ("0 1:inf\n", "mcc"),
        ("0 99999999999999999999:1\n", "mcc"),  # past int64
        ("0 -9223372036854775808:1\n", "mcc"),  # its idx - 1 is past int64
        ("0 -5:1\n", "mcc"),
        ("0 1:1.0\n0 1:x\nq 1:1.0\n", "mcc"),
        ("# one\n0 1:1.0\n0 1:1.0 1:2.0\n", "mcc"),
        ("0 5:1:2\n", "mcc"),
        ("0 :5\n", "mcc"),
        ("0 5:\n", "mcc"),
        ("0 +5:1\n", "mcc"),  # valid: int("+5") is 5
        ("0 1_0:2\n", "mcc"),  # valid: int("1_0") is 10
        ("0 2:1_5\n", "mcc"),  # valid: float("1_5") is 15.0
        ("0 5 1:2:3\n", "mcc"),  # token counts that add up across a bad pair
        ("0 5: 7\n", "mcc"),
        ("0 3:1 1:1 3:2\n", "mcc"),  # a duplicate inside an unsorted row
        ("0 1:1\n0 2:1 1:1 2:5\n", "mcc"),
        ("1:2 3:4\n", "mcc"),
        ("0 1:1e999\n", "mcc"),
        (" # not a comment 1:1\n", "mcc"),
        ("", "mcc"),
        ("# only a comment\n\n", "mcc"),
        ("0,2 1:1.0\n", "mlc"),
        ("1,1 1:1.0\n", "mlc"),
        ("2,1,2 1:1.0\n", "mlc"),
        ("1,,2 1:1.0\n", "mlc"),
        ("1, 1:1.0\n", "mlc"),
        ("a 1:1.0\n", "mlc"),
        ("1 1:1.0\n-3 2:1.0\n", "mlc"),
        ("1 2:1.0 1:1.0 1:3.0\n", "mlc"),
    ]

    @pytest.mark.parametrize("text,task", MALFORMED)
    @pytest.mark.parametrize("batch_chars", [None, 1])
    def test_malformed_lines_fail_alike(self, text, task, batch_chars):
        new, old = both(text, task, batch_chars)
        assert new == old

    def test_component_ids_past_int64_are_bad_label_ids(self):
        # The oracle reads such an id and then builds a label map with one entry per id below it.
        with pytest.raises(ParseError, match="^line 2: bad label id '9223372036854775808'$"):
            parse_text("1 1:1.0\n9223372036854775808 2:1.0\n", "mlc")

    @pytest.mark.parametrize("batch_chars", [None, 8])
    def test_d_overflow_on_an_earlier_line_than_a_bad_token(self, batch_chars):
        new, old = both("0 1:1\n0 9:1\n0 1:x\n", "mcc", batch_chars, d=4)
        assert new == old == ("ParseError", "line 2: feature index 9 exceeds declared d=4")

    def test_errors_after_every_line_fail_alike(self):
        for text, label_map in [("7 1:1.0\n3 1:1.0\n", identity(2)), ("1,5 1:1.0\n", identity(4))]:
            task = "mlc" if "," in text else "mcc"
            new, old = both(text, task, label_map=label_map)
            assert new == old and new[0] == "ParseError"

    def test_a_bad_line_in_a_later_batch_names_its_line(self):
        text = "".join(f"0 {i % 5 + 1}:1.0\n" for i in range(200)) + "0 2:x\n"
        new, old = both(text, "mcc", 64)
        assert new == old == ("ParseError", "line 201: bad feature token '2:x'")

    def test_undecodable_bytes_name_their_line(self, tmp_path):
        path = tmp_path / "bytes.txt"
        path.write_bytes(b"# caf\xc3\xa9\r\n1 1:0.5\r\n2 2:\xff\n")
        with pytest.raises(ParseError, match=r"^line 3: cannot decode b'\\xff' as "):
            parse_sparse_text(path, "mcc")

    def test_peak_memory_is_no_more_than_the_oracles(self, tmp_path):
        rng = np.random.default_rng(5)
        lines = []
        for _ in range(5000):
            cols = np.sort(rng.choice(2000, size=20, replace=False)) + 1
            labels = np.sort(rng.choice(10, size=int(rng.integers(1, 4)), replace=False)) + 1
            feats = " ".join(f"{j}:{v!r}" for j, v in zip(cols.tolist(), rng.standard_normal(20).tolist()))
            lines.append(",".join(map(str, labels.tolist())) + " " + feats)
        path = tmp_path / "mlc.txt"
        path.write_text("\n".join(lines) + "\n")
        peaks = []
        for parse in (parse_sparse_text, oracles.per_token_parse):
            tracemalloc.start()
            try:
                parse(path, "mlc")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= peaks[1]
        # The parse holds its entries (an int64 column and a float64 value each) twice while it joins
        # them, and one batch's text and tokens; not the file's 2.3 MB of text, once or twice.
        assert peaks[0] <= 2 * 16 * 5000 * 20 + (1 << 20)


def path_outcome(path, task, batch_chars):
    """The outcome of parsing a path in blocks of batch_chars bytes."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(dataio_module, "_PARSE_BATCH_CHARS", batch_chars)
        return outcome(parse_sparse_text, path, task)


def across_a_cut(batch_chars, data, cut):
    """data with a comment line in front, so that a block of batch_chars bytes ends before data[cut]."""
    return b"#" + b"x" * (-(2 + cut) % batch_chars) + b"\n" + data


class TestStreamingPaths:
    """A path read in blocks of bytes parses as the StringIO of its decoded text does, wherever the blocks end."""

    ENCODING = io.TextIOWrapper(io.BytesIO()).encoding  # the one ``open`` picks for a path
    WIDE = "1 " + " ".join(f"{j}:0.{j}25" for j in range(1, 30))  # longer than any tested block
    # (text, a piece of it, where in that piece's bytes a block ends)
    CASES = {
        "crlf": ("1 1:0.5\r\n2 2:1.5\r\n3 1:2\r\n", "\r\n2", 1),
        "multi-byte character": ("1 1:0.5\n2 \u0663\u0663:1.5\n# caf\u00e9\n", "\u0663", 1),  # int("\u0663\u0663") is 33
        "comment": ("1 1:0.5\n# a comment\n2 2:1.5\n", "comment", 4),
        "blank lines": ("1 1:0.5\n\n   \n\r\n2 2:1.5\n", "   ", 1),
        "no trailing newline": ("1 1:0.5\n2 2:1.5", "1.5", 1),
        "long line": ("1 1:0.5\n" + WIDE + "\n2 2:1.5\n", "3:0.325", 2),
        "bad token": ("1 1:0.5\n2 2:1.5x\n3 1:2\n", "1.5x", 2),
    }

    @pytest.mark.parametrize("case", CASES, ids=str)
    @pytest.mark.parametrize("batch_chars", [1, 7, 64])
    def test_equals_the_parse_of_the_decoded_text(self, tmp_path, case, batch_chars):
        path = tmp_path / "f.txt"
        text, piece, offset = self.CASES[case]
        data = text.encode(self.ENCODING)
        path.write_bytes(across_a_cut(batch_chars, data, data.index(piece.encode(self.ENCODING)) + offset))
        text = path.read_bytes().decode(self.ENCODING)
        assert path_outcome(path, "mcc", batch_chars) == outcome(parse_sparse_text, text, "mcc")

    @pytest.mark.parametrize("batch_chars", [1, 7, 64])
    def test_undecodable_byte_in_a_later_batch_names_its_line(self, tmp_path, batch_chars):
        path = tmp_path / "f.txt"
        path.write_bytes(b"".join(b"%d %d:0.5\r\n" % (i % 3, i % 7 + 1) for i in range(40)) + b"1 2:\xff\n0 1:1\n")
        message = f"line 41: cannot decode b'\\xff' as {self.ENCODING}"
        assert path_outcome(path, "mcc", batch_chars) == ("ParseError", message)

    @pytest.mark.parametrize("batch_chars", [7, 1 << 15])
    def test_errors_come_in_file_order(self, tmp_path, batch_chars):
        # Each run of lines is decoded and parsed before the next is read, so an undecodable byte no longer
        # outranks an earlier malformed line, in a later batch or in the same one; a later one still
        # raises after every line before it parsed.
        path = tmp_path / "f.txt"
        path.write_bytes(b"0 1:1\n0 1:x\n" + b"0 1:1\n" * 20 + b"0 1:\xff\n")
        assert path_outcome(path, "mcc", batch_chars) == ("ParseError", "line 2: bad feature token '1:x'")
        path.write_bytes(b"0 1:1\n0 1:1\n" + b"0 1:1\n" * 20 + b"0 1:\xff\n0 1:x\n")
        assert path_outcome(path, "mcc", batch_chars)[1].startswith("line 23: cannot decode b'\\xff'")


class TestRoundTrip:
    @pytest.mark.parametrize("task", ["mcc", "mlc"])
    def test_synthetic_datasets_survive_write_parse(self, task, tmp_path):
        rng = np.random.default_rng(17)
        for trial in range(10):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 12))
            c = int(rng.integers(2, 6))
            ds = synth_gen(n=n, d=d, c=c, task=task, noise=0.2, seed=trial)
            path = tmp_path / f"{task}_{trial}.txt"
            write_sparse_text(ds, path)
            back = parse_sparse_text(path, task, d=ds.d, label_map=ds.label_map)
            assert back == ds

    def test_canonicalized_text_round_trips(self):
        text = "2 1:0.5 3:1.5\n0 2:-1.25\n2 1:3.0\n"
        ds = parse_text(text, "mcc")
        buffer = io.StringIO()
        write_sparse_text(ds, buffer)
        again = parse_text(buffer.getvalue(), "mcc", d=ds.d, label_map=ds.label_map)
        assert again == ds

    def test_label_ids_restored_on_write(self):
        # original ids reappear even though labels are stored remapped
        ds = parse_text("7 1:1.0\n3 2:0.5\n", "mcc", label_map={7: 0, 3: 1})
        buffer = io.StringIO()
        write_sparse_text(ds, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0].startswith("7 ")
        assert lines[1].startswith("3 ")

    def test_mlc_positive_labels_written_one_based(self):
        ds = parse_text("1,3 2:1.0\n", "mlc", label_map=identity(4))
        buffer = io.StringIO()
        write_sparse_text(ds, buffer)
        assert buffer.getvalue() == "1,3 2:1.0\n"

    def test_awkward_floats_round_trip(self):
        values = [1e-300, 1.5e300, 0.1, -2.0 / 3.0, 1.0 + 2**-52]
        ds = Dataset(np.array(values)[:, None], np.zeros(5, dtype=int), 2, "mcc", {0: 0})
        buffer = io.StringIO()
        write_sparse_text(ds, buffer)
        back = parse_text(buffer.getvalue(), "mcc", d=1, label_map=identity(2))
        assert back == ds

    def test_all_negative_sign_vector_rejected_on_write(self):
        ds = Dataset(np.array([[1.0]]), np.array([[-1, -1]]), 2, "mlc")
        with pytest.raises(ValueError):
            write_sparse_text(ds, io.StringIO())


class TestNormalize:
    def test_three_four_five(self):
        ds = Dataset(np.array([[3.0, 4.0]]), np.array([0]), 2, "mcc", {0: 0})
        out = normalize_rows(ds)
        assert np.array_equal(out.X.data, np.array([0.6, 0.8]))

    def test_zero_row_untouched(self):
        ds = Dataset(np.array([[0.0, 0.0], [0.0, 2.0]]), np.array([1, 0]), 2, "mcc", {1: 1})
        out = normalize_rows(ds)
        assert oracles.scipy_csr(out.X)[0].nnz == 0
        assert np.array_equal(out.X.data, np.array([1.0]))

    def test_kappa_exactly_one(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((200, 7)) * 10.0 ** rng.integers(-2, 3, size=(200, 1))
        ds = Dataset(X, rng.integers(3, size=200), 3, "mcc", {i: i for i in range(3)})
        out = normalize_rows(ds)
        norms = [np.linalg.norm(oracles.scipy_csr(out.X)[i].data) for i in range(len(out))]
        assert out.kappa == 1.0
        assert min(norms) == 1.0 and max(norms) == 1.0

    def test_idempotent(self):
        ds = synth_gen(n=50, d=9, c=3, task="mcc", noise=0.1, seed=4)
        once = normalize_rows(ds)
        twice = normalize_rows(once)
        assert once == twice

    def test_in_range_rows_match_the_unscaled_formula(self):
        rng = np.random.default_rng(20)
        rows = [rng.standard_normal(int(rng.integers(1, 30))) * 10.0 ** rng.uniform(-100, 100) for _ in range(2000)]
        X = normalize_rows(ragged_rows(rows, d=30, seed=21)).X
        for i, values in enumerate(rows):
            assert np.array_equal(X.data[X.indptr[i] : X.indptr[i + 1]], oracles.unit_values(values))

    def test_blocks_match_the_per_row_rescaling(self):
        # rows past the norm range, subnormal rows, explicit zeros and zero
        # rows, in blocks of many widths: every row keeps the per-row bits
        rng = np.random.default_rng(22)
        rows = []
        for i in range(3000):
            values = rng.standard_normal(int(rng.integers(1, 30))) * 10.0 ** rng.uniform(-300, 300)
            if i % 10 == 0:
                values[rng.integers(len(values))] = 0.0
            if i % 20 == 1:
                values = rng.integers(-50, 50, size=len(values)) * 5e-324
            rows.append(values)
        X = normalize_rows(ragged_rows(rows, d=30, seed=23)).X
        walked = 0
        for i, values in enumerate(rows):
            expected = oracles.prescaled_unit_values(values.copy())
            assert np.array_equal(X.data[X.indptr[i] : X.indptr[i + 1]], expected)
            if np.any(values):
                scaled = np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1])
                walked += np.linalg.norm(scaled / np.linalg.norm(scaled)) != 1.0
        assert walked > 0  # some rows needed the one-ulp walk

    def test_dense_rows_match_the_per_row_rescaling(self):
        # synth_gen's inputs go through the same helper
        rows = np.random.default_rng(24).standard_normal((500, 17))
        for out, values in zip(_unit_rows(rows.copy()), rows):
            assert np.array_equal(out, oracles.prescaled_unit_values(values.copy()))

    @pytest.mark.parametrize(
        "values", [[1e200, 3e199], [1e-200, 2e-200], [5e-324, 1e-323], [1.7e308, -1.7e308]]
    )
    def test_rows_past_the_norm_range_get_unit_norm(self, values):
        ds = Dataset(np.array([values]), np.array([0]), 2, "mcc")
        out = normalize_rows(ds)
        assert np.linalg.norm(out.X.data) == 1.0 and out.kappa == 1.0
        assert normalize_rows(out) == out


class TestSplit:
    def test_sizes(self):
        train, test = split(10, 0.8, seed=1)
        assert len(train) == 8 and len(test) == 2
        assert np.issubdtype(train.dtype, np.integer) and np.issubdtype(test.dtype, np.integer)

    def test_deterministic(self):
        a = split(30, 0.7, seed=5)
        b = split(30, 0.7, seed=5)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sides_partition_the_rows(self):
        train, test = split(23, 0.6, seed=3)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(23))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            split(3, 0.05, seed=0)
        with pytest.raises(ValueError):
            split(3, 1.5, seed=0)

    def test_row_norms_of_a_side_equal_the_pool_rows(self):
        rng = np.random.default_rng(23)
        for trial in range(100):
            n, d = int(rng.integers(2, 40)), int(rng.integers(1, 25))
            X = sp.random(n, d, density=rng.uniform(0.0, 1.0), format="csr", random_state=trial)
            pool = Dataset(X * 10.0 ** rng.uniform(-5, 5), np.zeros(n, dtype=int), 2, "mcc")
            for part in split(n, 0.5, seed=trial):
                side = Dataset(oracles.scipy_csr(pool.X)[part], pool.y[part], 2, "mcc")
                assert side.row_sq_norms.tobytes() == pool.row_sq_norms[part].tobytes()
                assert side.kappa == math.sqrt(float(pool.row_sq_norms[part].max()))


class TestSubsample:
    def test_deterministic_subset(self):
        a = subsample(40, 15, seed=9)
        b = subsample(40, 15, seed=9)
        assert np.array_equal(a, b) and len(a) == 15

    def test_size_bounds(self):
        with pytest.raises(ValueError):
            subsample(5, 0, seed=0)
        with pytest.raises(ValueError):
            subsample(5, 6, seed=0)

    def test_distinct_rows_in_range(self):
        sub = subsample(25, 10, seed=1)
        assert len(set(sub.tolist())) == 10 and 0 <= sub.min() and sub.max() < 25


class TestSynthGen:
    def test_deterministic(self):
        a = synth_gen(n=50, d=6, c=4, task="mcc", noise=0.1, seed=3)
        b = synth_gen(n=50, d=6, c=4, task="mcc", noise=0.1, seed=3)
        assert a == b

    def test_kappa_exactly_one(self):
        for task in ("mcc", "mlc"):
            ds = synth_gen(n=80, d=10, c=3, task=task, noise=0.0, seed=1)
            assert ds.kappa == 1.0

    def test_mcc_labels_in_range(self):
        ds = synth_gen(n=100, d=4, c=5, task="mcc", noise=0.3, seed=2)
        labels = ds.y
        assert labels.min() >= 0 and labels.max() < 5
        assert np.unique(labels).size > 1

    def test_mlc_rows_have_both_signs(self):
        for noise in (0.0, 0.4):
            ds = synth_gen(n=150, d=5, c=4, task="mlc", noise=noise, seed=6)
            assert np.all(np.any(ds.y == 1, axis=1) & np.any(ds.y == -1, axis=1))

    def test_noise_changes_labels_only(self):
        clean = synth_gen(n=60, d=5, c=3, task="mcc", noise=0.0, seed=8)
        noisy = synth_gen(n=60, d=5, c=3, task="mcc", noise=0.5, seed=8)
        assert np.array_equal(oracles.scipy_csr(clean.X).toarray(), oracles.scipy_csr(noisy.X).toarray())
        assert np.sum(clean.y != noisy.y) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_gen(n=0, d=2, c=2, task="mcc", seed=0)
        with pytest.raises(ValueError):
            synth_gen(n=2, d=2, c=1, task="mcc", seed=0)
        with pytest.raises(ValueError):
            synth_gen(n=2, d=2, c=2, task="mcc", noise=1.5, seed=0)


@pytest.mark.skipif(
    "VVLEARN_ALOI" not in os.environ,
    reason="set VVLEARN_ALOI to the ALOI sparse text file to run",
)
def test_aloi_shape_when_file_supplied():
    ds = parse_sparse_text(os.environ["VVLEARN_ALOI"], "mcc")
    assert ds.c == 1000
    assert ds.d == 128
