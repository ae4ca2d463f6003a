import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    CooccurrenceStats,
    DimensionMismatchError,
    Embedding,
    FormatError,
    Provenance,
    SparseMatrix,
    Vocabulary,
    encode_text,
    make_provenance,
    read_cooc,
    read_embedding,
    read_matrix,
    read_provenance,
    read_similarity,
    read_vocab,
    write_cooc,
    write_embedding,
    write_matrix,
    write_vocab,
)
from coocvec.formats import PAIRS_PER_WRITE, parse_provenance_line, provenance_line
from helpers import make_stats, same_pairs, sparse
from oracles import write_embedding_whole, write_triplets_whole


@pytest.fixture
def stats():
    return make_stats({(0, 1): 2.5, (1, 0): 2.5, (0, 0): 1.0}, 2)


@pytest.fixture
def prov():
    return make_provenance("count", {"left": 2, "right": 2})


class TestVocabFiles:
    def test_round_trip(self, tmp_path):
        vocab, _ = encode_text("b a b c b a\n")
        path = str(tmp_path / "v.tsv")
        write_vocab(vocab, path)
        back, stamp = read_vocab(path)
        assert stamp is None
        assert back.words == vocab.words
        assert np.array_equal(back.freq, vocab.freq)
        assert back.total_tokens == vocab.total_tokens

    def test_provenance_stamp_survives(self, tmp_path, prov):
        vocab, _ = encode_text("a b\n")
        path = str(tmp_path / "v.tsv")
        write_vocab(vocab, path, prov=prov)
        back, stamp = read_vocab(path)
        assert read_provenance(path).hash() == stamp.hash() == prov.hash()
        assert back.words == vocab.words

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\t3\nb no-tab-here\n")
        with pytest.raises(FormatError):
            read_vocab(str(path))

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tthree\n")
        with pytest.raises(FormatError):
            read_vocab(str(path))

    def test_repeated_word(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("a\t3\nb\t2\na\t1\n")
        with pytest.raises(FormatError, match=f"{path}: word 'a' is repeated"):
            read_vocab(str(path))
        with pytest.raises(FormatError, match="word 'a' is repeated"):
            Vocabulary(words=["a", "b", "a"], freq=[3, 2, 1])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("# just a comment\n")
        with pytest.raises(FormatError):
            read_vocab(str(path))


class TestCoocFiles:
    def test_text_round_trip(self, tmp_path, stats):
        path = str(tmp_path / "c.txt")
        write_cooc(stats, path)
        back, _ = read_cooc(path)
        assert same_pairs(back.counts, stats.counts)
        assert back.n_words == stats.n_words
        assert back.total == stats.total

    def test_binary_round_trip(self, tmp_path, stats, prov):
        path = str(tmp_path / "c.bin")
        write_cooc(stats, path, prov=prov, binary=True)
        back, _ = read_cooc(path)
        assert same_pairs(back.counts, stats.counts)
        assert back.total == stats.total
        assert read_provenance(path).hash() == prov.hash()

    def test_binary_and_text_carry_identical_data(self, tmp_path, stats):
        t = str(tmp_path / "c.txt")
        b = str(tmp_path / "c.bin")
        write_cooc(stats, t)
        write_cooc(stats, b, binary=True)
        assert same_pairs(read_cooc(t)[0].counts, read_cooc(b)[0].counts)

    def test_write_is_deterministic(self, tmp_path, stats, prov):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_cooc(stats, str(a), prov=prov)
        write_cooc(stats, str(b), prov=prov)
        assert a.read_bytes() == b.read_bytes()

    def test_header_total_mismatch(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("2 99.0\n0 1 2.5\n")
        with pytest.raises(FormatError):
            read_cooc(str(path))

    def test_header_shape_errors(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("")
        with pytest.raises(FormatError):
            read_cooc(str(path))
        path.write_text("2\n")
        with pytest.raises(FormatError):
            read_cooc(str(path))
        path.write_text("2 6.0\n0 1\n")
        with pytest.raises(FormatError):
            read_cooc(str(path))

    def test_fractional_weights_round_trip_exactly(self, tmp_path):
        value = 1.0 / 3.0 + 1e-16
        stats = make_stats({(0, 1): value, (1, 0): value}, 2)
        path = str(tmp_path / "c.txt")
        write_cooc(stats, path)
        back = read_cooc(path)[0].counts
        assert back.pair(0) == (0, 1) and back.v[0] == value


class TestMatrixFiles:
    def test_pmi_tag_infers_undefined_absences(self, tmp_path):
        mat = sparse(2, 2, {(0, 1): 0.7}, None)
        path = str(tmp_path / "m.txt")
        write_matrix(mat, path, tag="pmi", k=1.0)
        back, info = read_matrix(path)
        assert back.implicit_value is None
        assert same_pairs(back, mat)
        assert info.tag == "pmi"
        assert info.k == 1.0
        assert info.lam is None
        header = open(path).readline().split()
        assert len(header) == 4

    def test_clamped_tags_infer_zero(self, tmp_path):
        mat = sparse(2, 2, {(0, 1): 0.7}, 0.0)
        for tag in ("ppmi", "sppmi"):
            path = str(tmp_path / f"{tag}.txt")
            write_matrix(mat, path, tag=tag, k=2.0)
            back, info = read_matrix(path)
            assert back.implicit_value == 0.0
            assert info.k == 2.0

    def test_other_tags_record_implicit_explicitly(self, tmp_path):
        mat = sparse(2, 2, {(0, 0): 0.4}, -1.0)
        path = str(tmp_path / "m.txt")
        write_matrix(mat, path, tag="solution:squared", k=1.0)
        assert "implicit=-1.0" in open(path).readline()
        back, info = read_matrix(path)
        assert back.implicit_value == -1.0
        assert info.tag == "solution:squared"

    def test_marker_implicit_serializes_as_none(self, tmp_path):
        mat = sparse(2, 2, {(0, 0): 0.4}, None)
        path = str(tmp_path / "m.txt")
        write_matrix(mat, path, tag="solution:logistic", k=1.5)
        assert "implicit=none" in open(path).readline()
        back, _ = read_matrix(path)
        assert back.implicit_value is None

    def test_unknown_tag_without_implicit_is_an_error(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 mystery 1.0\n0 0 0.5\n")
        with pytest.raises(FormatError):
            read_matrix(str(path))

    def test_lambda_field_round_trips(self, tmp_path):
        mat = sparse(1, 1, {(0, 0): 0.25}, 0.0)
        path = str(tmp_path / "m.txt")
        write_matrix(mat, path, tag="reg:l1", k=1.0, lam=0.125)
        _, info = read_matrix(path)
        assert info.lam == 0.125

    def test_unknown_header_field(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1 pmi 1.0 sparkle=yes\n0 0 0.5\n")
        with pytest.raises(FormatError):
            read_matrix(str(path))

    def test_binary_matrix_round_trip(self, tmp_path, prov):
        entries = {(0, 1): -0.5, (3, 2): 1.75}
        mat = sparse(4, 4, entries, None)
        path = str(tmp_path / "m.bin")
        write_matrix(mat, path, tag="spmi", k=3.0, prov=prov, binary=True)
        back, info = read_matrix(path)
        assert same_pairs(back, mat)
        assert back.rows == 4 and back.cols == 4
        assert info.tag == "spmi" and info.k == 3.0
        assert read_provenance(path).hash() == prov.hash()

    def test_empty_matrix_round_trips(self, tmp_path):
        mat = sparse(3, 3, {}, 0.0)
        path = str(tmp_path / "m.txt")
        write_matrix(mat, path, tag="sppmi", k=5.0)
        back, _ = read_matrix(path)
        assert back.nnz == 0
        assert back.rows == 3


def random_matrix(nnz: int, n: int = 100, seed: int = 0) -> SparseMatrix:
    """nnz distinct pairs of an n x n matrix, with positive values over 40 decades."""
    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(n * n, size=nnz, replace=False))
    values = rng.random(nnz) * 10.0 ** rng.integers(-20, 20, size=nnz)
    return SparseMatrix(n, n, flat // n, flat % n, values)


def transient_bytes(fn, *args) -> tuple[object, int]:
    """fn(*args) and the most memory it held beyond what it returns."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - max(held, base)


class TestBlockedTriplets:
    @pytest.mark.parametrize("nnz", [0, 1, PAIRS_PER_WRITE - 1, PAIRS_PER_WRITE, PAIRS_PER_WRITE + 1])
    def test_block_writer_matches_whole_file_writer(self, tmp_path, prov, nnz):
        mat = random_matrix(nnz, seed=nnz)
        stats = CooccurrenceStats.from_counts(mat)
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_cooc(stats, str(got), prov=prov)
        write_triplets_whole([f"100 {stats.total!r}", provenance_line(prov)], mat, str(want))
        assert got.read_bytes() == want.read_bytes()
        write_matrix(mat, str(got), tag="solution:squared", k=5.0, prov=prov)
        head = ["100 100 solution:squared 5.0 implicit=0.0", provenance_line(prov)]
        write_triplets_whole(head, mat, str(want))
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == nnz + 2

    @pytest.mark.parametrize("rows, cols", [(5, 1000), (1000, 5)])
    def test_block_writer_keeps_every_float_spelling(self, tmp_path, prov, rows, cols):
        nnz = PAIRS_PER_WRITE + 7
        flat = np.random.default_rng(rows).choice(rows * cols, size=nnz, replace=False)
        special = np.array([-0.0, 5e-324, 1e-5, 1e16, 1e22, -2.5])
        mat = SparseMatrix(rows, cols, flat // cols, flat % cols, np.resize(special, nnz))
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_matrix(mat, str(got), tag="solution:squared", k=5.0, prov=prov)
        head = [f"{rows} {cols} solution:squared 5.0 implicit=0.0", provenance_line(prov)]
        write_triplets_whole(head, mat, str(want))
        assert got.read_bytes() == want.read_bytes()
        assert {"-0.0", "5e-324", "1e-05", "1e+16", "1e+22"} <= set(got.read_text().split())

    def test_text_write_holds_one_block(self, tmp_path):
        # the whole-file writer held every row as a Python string: about 10 MB here
        mat = random_matrix(50_000, n=1000)
        _, transient = transient_bytes(write_matrix, mat, str(tmp_path / "m.txt"), "ppmi", 5.0)
        assert transient < 2_000_000

    def test_text_read_transient_scales_with_the_file(self, tmp_path):
        # the file's bytes and its decoded text; the splitlines reader held about 4x the file
        path = tmp_path / "m.txt"
        write_matrix(random_matrix(50_000, n=1000), str(path), "ppmi", 5.0)
        _, transient = transient_bytes(read_matrix, str(path))
        assert transient < 2.5 * path.stat().st_size

    @pytest.mark.parametrize(
        "body",
        [
            b"0 1 1.5\n1 0 2.5\n",
            b"0 1 1.5\r\n1 0 2.5\r\n\r\n",
            b"0 1 1.5\x0b1 0 2.5\n",
            b"\n\n0 1 1.5\n\n1 0 2.5",
            b"0 1 1.5\n# 1 0 2.5\n",
            b"0 1 1.5\n1 0\n",
            b"0 1 1.5\n1 0 2.5 7\n",
            b"0 1 x\n",
            b"0 1 1.5\r1 1 2.5\x1c1 0 0.5\n",
        ],
    )
    def test_parse_in_pieces_matches_the_whole_body(self, tmp_path, monkeypatch, body):
        path = tmp_path / "m.txt"
        path.write_bytes(b"2 2 ppmi 1.0\n" + body)

        def outcome():
            try:
                mat, _ = read_matrix(str(path))
            except FormatError as exc:
                return str(exc)
            return mat.i.tolist(), mat.j.tolist(), mat.v.tolist()

        whole = outcome()
        for chars in (1, 2, 5, 9):
            monkeypatch.setattr("coocvec.vectors.CHARS_PER_PIECE", chars)
            assert outcome() == whole


class TestEmbeddingFiles:
    def test_round_trip_with_meta(self, tmp_path):
        emb = Embedding(
            words=["a", "b"],
            vectors=np.array([[0.5, -1.25], [3.0, 0.0]]),
            meta={"flavor": "plain", "dim": "2"},
        )
        path = str(tmp_path / "e.txt")
        write_embedding(emb, path)
        back, _ = read_embedding(path)
        assert back.words == ["a", "b"]
        assert np.array_equal(back.vectors, emb.vectors)
        assert back.meta == {"flavor": "plain", "dim": "2"}

    @pytest.mark.parametrize("cell", ["NEG_INF", "-inf", "nan"])
    def test_non_finite_cell_is_malformed(self, tmp_path, cell):
        path = tmp_path / "e.txt"
        path.write_text(f"2 2\na 0.5 {cell}\nb 1.0 2.0\n")
        with pytest.raises(FormatError, match=str(path)):
            read_embedding(str(path))

    def test_words_that_look_like_stamps_or_cells_round_trip(self, tmp_path, prov):
        words = ["#", "#tag", "NEG_INF", "nan", "1.5", "#meta"]
        emb = Embedding(words, np.arange(12.0).reshape(6, 2), meta={"flavor": "plain"})
        path = str(tmp_path / "e.txt")
        write_embedding(emb, path, prov=prov)
        back, _ = read_embedding(path)
        assert back.words == words
        assert np.array_equal(back.vectors, emb.vectors)
        vocab = Vocabulary(words=words, freq=np.arange(6, 0, -1))
        write_vocab(vocab, path, prov=prov)
        assert read_vocab(path)[0].words == words
        assert read_provenance(path).hash() == prov.hash()

    def test_row_count_mismatch(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("2 2\na 1.0 2.0\n")
        with pytest.raises(FormatError):
            read_embedding(str(path))

    def test_repeated_word(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("3 1\nb 1.0\na 2.0\nb 3.0\n")
        with pytest.raises(FormatError, match=f"{path}: word 'b' is repeated"):
            read_embedding(str(path))
        with pytest.raises(FormatError, match="word 'b' is repeated"):
            Embedding(words=["b", "a", "b"], vectors=np.ones((3, 1)))

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "e.txt"
        path.write_text("1 3\na 1.0 2.0\n")
        with pytest.raises(FormatError):
            read_embedding(str(path))

    @pytest.mark.parametrize("n_rows", [0, 1, 255, 256, 257])
    def test_block_writer_matches_whole_matrix_writer(self, tmp_path, prov, n_rows):
        rng = np.random.default_rng(n_rows)
        scale = 10.0 ** rng.integers(-20, 20, size=(n_rows, 1))
        vectors = rng.normal(size=(n_rows, 3)) * scale
        vectors[:, 0] = np.where(rng.random(n_rows) < 0.3, -0.0, vectors[:, 0])
        emb = Embedding([f"wörd{i}" for i in range(n_rows)], vectors, meta={"flavor": "café"})
        got, want = tmp_path / "got.txt", tmp_path / "want.txt"
        write_embedding(emb, str(got), prov=prov)
        write_embedding_whole(emb, str(want), prov=prov)
        assert got.read_bytes() == want.read_bytes()
        assert len(got.read_bytes().splitlines()) == n_rows + 3

    def test_provenance_stamp(self, tmp_path, prov):
        emb = Embedding(words=["a"], vectors=np.array([[1.0]]))
        path = str(tmp_path / "e.txt")
        write_embedding(emb, path, prov=prov)
        assert read_provenance(path).hash() == prov.hash()


class TestSimilarityFiles:
    def test_reads_tab_separated_triples(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("# comment\nduck\tgoose\t8.5\nduck\tsteel\t1.0\n")
        assert read_similarity(str(path)) == [
            ("duck", "goose", 8.5),
            ("duck", "steel", 1.0),
        ]

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("duck\tgoose\n")
        with pytest.raises(FormatError):
            read_similarity(str(path))

    def test_bad_score(self, tmp_path):
        path = tmp_path / "s.tsv"
        path.write_text("duck\tgoose\thigh\n")
        with pytest.raises(FormatError):
            read_similarity(str(path))


class TestProvenance:
    def test_root_is_own_hash_without_upstream(self):
        p = make_provenance("count", {"left": 1})
        assert p.root == p.hash()

    def test_root_inherited_through_chain(self):
        a = make_provenance("count", {})
        b = make_provenance("pmi", {"k": 2.0}, {"counts": a})
        c = make_provenance("factorize", {"dim": 4}, {"matrix": b})
        assert b.root == a.root == a.hash()
        assert c.root == a.hash()
        assert b.hash() != a.hash()

    def test_two_inputs_same_root_still_inherit(self):
        a = make_provenance("count", {})
        b = make_provenance("pmi", {}, {"counts": a})
        c = make_provenance("eval", {}, {"emb": b, "counts": a})
        assert c.root == a.hash()

    def test_mixed_ancestry_clears_root(self):
        a = make_provenance("count", {"corpus": "one"})
        b = make_provenance("count", {"corpus": "two"})
        merged = make_provenance("eval", {}, {"left": a, "right": b})
        assert merged.root is None

    def test_rootless_upstream_keeps_root_null(self):
        a = make_provenance("count", {})
        rootless = Provenance(command="factorize", config={}, inputs={"m": "x"}, root=None)
        for upstream in ({"m": rootless}, {"m": rootless, "counts": a}, {"m": rootless, "d": None}):
            merged = make_provenance("eval", {}, upstream)
            assert merged.root is None
            assert make_provenance("report", {}, {"scores": merged}).root is None

    def test_unstamped_upstream_next_to_a_root_inherits_it(self):
        a = make_provenance("count", {})
        assert make_provenance("eval", {}, {"emb": a, "dataset": None}).root == a.hash()

    def test_unstamped_upstream_recorded_as_null(self):
        p = make_provenance("eval", {}, {"dataset": None})
        assert p.inputs == {"dataset": None}
        assert p.root == p.hash()

    def test_hash_ignores_root_but_not_config(self):
        a = make_provenance("count", {"left": 1})
        b = Provenance(command="count", config={"left": 1})
        assert a.hash() == b.hash()
        c = make_provenance("count", {"left": 2})
        assert c.hash() != a.hash()

    def test_line_round_trip(self):
        a = make_provenance("count", {"left": 1, "tau": None})
        b = make_provenance("pmi", {"k": 2.0}, {"counts": a})
        line = provenance_line(b)
        back = parse_provenance_line(line)
        assert back.hash() == b.hash()
        assert back.root == b.root
        assert back.inputs == b.inputs

    def test_unparseable_line(self):
        with pytest.raises(FormatError):
            parse_provenance_line("# provenance deadbeef {not json")

    def test_read_provenance_absent(self, tmp_path):
        vocab = Vocabulary(words=["a"], freq=np.array([1]))
        path = str(tmp_path / "v.tsv")
        write_vocab(vocab, path)
        assert read_provenance(path) is None


class TestFloatSerialization:
    @given(
        st.floats(
            allow_nan=False,
            allow_infinity=False,
            min_value=-1e12,
            max_value=1e12,
        )
    )
    def test_repr_round_trips_exactly(self, value):
        assert float(repr(value)) == value

    def test_numpy_scalars_serialize_as_plain_floats(self, tmp_path):
        stats = make_stats({(0, 1): np.float64(2.5)}, 2)
        path = str(tmp_path / "c.txt")
        write_cooc(stats, path)
        text = open(path).read()
        assert "float64" not in text
        assert read_cooc(path)[0].total == pytest.approx(2.5)


@st.composite
def shuffled_triplets(draw):
    """A shape, unique (i, j) -> value entries inside it, and those entries in a random order."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            st.floats(allow_nan=False, allow_infinity=False),
            max_size=rows * cols,
        )
    )
    order = draw(st.permutations(list(entries.items())))
    return rows, cols, entries, order


@settings(max_examples=60, deadline=None)
@given(case=shuffled_triplets())
def test_property_sparse_matrix_sorts_and_round_trips(tmp_path_factory, case):
    rows, cols, entries, order = case
    i = [key[0] for key, _ in order]
    j = [key[1] for key, _ in order]
    v = [value for _, value in order]
    mat = SparseMatrix(rows, cols, i, j, v, None)
    assert list(zip(mat.i.tolist(), mat.j.tolist())) == sorted(entries)
    assert mat.v.tolist() == [entries[key] for key in sorted(entries)]

    work = tmp_path_factory.mktemp("triplets")
    for binary in (False, True):
        path = str(work / f"m{int(binary)}")
        write_matrix(mat, path, tag="solution:logistic", k=1.0, binary=binary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back, _ = read_matrix(path)
        assert (back.rows, back.cols) == (rows, cols)
        for name in ("i", "j", "v"):
            assert np.array_equal(getattr(back, name), getattr(mat, name))

    if order:
        with pytest.raises(FormatError):
            SparseMatrix(rows, cols, i + i[:1], j + j[:1], v + v[:1], None)


def test_sparse_matrix_checks_sorted_columns_in_12_bytes_per_pair():
    """Sorted, distinct, in-range columns pass with one int64 key and one bool mask
    per pair above the inputs; the range and repeat checks add no int64 array."""
    n = 500
    flat = np.arange(0, n * n, 2, dtype=np.int64)  # 125,000 pairs, each row's columns ascending
    i, j, v = flat // n, flat % n, np.ones(len(flat))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mat = SparseMatrix(n, n, i, j, v)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert mat.i is i and mat.j is j and mat.v is v  # sorted columns are kept, not copied
    assert peak < 12 * len(flat), peak / len(flat)


def test_sparse_matrix_refuses_range_before_repeats_naming_the_first_bad_pair():
    i, j = [0, 1, 1, 2, 3, 3], [1, 0, 0, 1, 5, 7]
    with pytest.raises(DimensionMismatchError, match=r"^pair \(3, 5\) outside a 4 x 4 matrix$"):
        SparseMatrix(4, 4, i, j, np.ones(6))
    with pytest.raises(FormatError, match=r"^pair \(1, 0\) is stored twice$"):
        SparseMatrix(4, 4, i[:4], j[:4], np.ones(4))
