import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from coocvec import (
    Embedding,
    InsufficientPairsError,
    UnknownWordError,
    neighbors,
    spearman,
)
from coocvec.evaluation import average_ranks
from oracles import brute_neighbors, spearman_ref


def emb_from(rows: dict[str, list[float]]) -> Embedding:
    words = list(rows)
    return Embedding(words=words, vectors=np.array([rows[w] for w in words], dtype=float))


class TestNeighbors:
    def test_orthonormal_rows_all_tie_at_zero(self):
        emb = emb_from({"a": [1, 0, 0], "b": [0, 1, 0], "c": [0, 0, 1]})
        out = neighbors(emb, "a", 2)
        assert out == [("b", 0.0), ("c", 0.0)]

    def test_identical_vector_scores_one(self):
        emb = emb_from({"a": [1, 1], "b": [2, 2], "c": [1, -1]})
        out = neighbors(emb, "a", 2)
        assert out[0][0] == "b"
        assert out[0][1] == pytest.approx(1.0)
        assert out[1] == ("c", pytest.approx(0.0))

    def test_dot_metric_rewards_magnitude(self):
        emb = emb_from({"a": [1, 0], "b": [1, 0], "c": [5, 0]})
        out = neighbors(emb, "a", 2, metric="dot")
        assert [w for w, _ in out] == ["c", "b"]
        assert out[0][1] == pytest.approx(5.0)

    def test_ties_break_by_word_id(self):
        emb = emb_from({"a": [1, 0], "z": [1, 0], "b": [1, 0]})
        out = neighbors(emb, "a", 2)
        assert [w for w, _ in out] == ["z", "b"]

    def test_zero_query_cosine_is_empty(self):
        emb = emb_from({"a": [0, 0], "b": [1, 0]})
        assert neighbors(emb, "a", 1) == []
        out = neighbors(emb, "a", 1, metric="dot")
        assert out == [("b", 0.0)]

    def test_zero_candidate_scores_zero_under_cosine(self):
        emb = emb_from({"a": [1, 0], "b": [0, 0], "c": [-1, 0]})
        out = neighbors(emb, "a", 2)
        assert out == [("b", 0.0), ("c", -1.0)]

    def test_unknown_word(self):
        emb = emb_from({"a": [1.0]})
        with pytest.raises(UnknownWordError):
            neighbors(emb, "nope", 1)

    def test_negative_n_rejected(self):
        emb = emb_from({"a": [1.0], "b": [2.0]})
        with pytest.raises(ValueError):
            neighbors(emb, "a", -1)

    def test_n_clamps_to_available(self):
        emb = emb_from({"a": [1.0], "b": [2.0]})
        assert len(neighbors(emb, "a", 10)) == 1
        assert neighbors(emb, "a", 0) == []

    def test_invalid_metric(self):
        emb = emb_from({"a": [1.0], "b": [2.0]})
        with pytest.raises(ValueError):
            neighbors(emb, "a", 1, metric="euclid")

    def test_matches_brute_force(self, rng):
        words = [f"w{i}" for i in range(12)]
        vectors = rng.normal(size=(12, 4))
        vectors[3] = 0.0
        emb = Embedding(words=words, vectors=vectors)
        for metric in ("cosine", "dot"):
            for w in ("w0", "w3", "w7"):
                got = neighbors(emb, w, 5, metric=metric)
                if metric == "cosine" and w == "w3":
                    assert got == []
                    continue
                want = brute_neighbors(vectors, words, words.index(w), metric)[:5]
                assert [g[0] for g in got] == [e[0] for e in want]
                for (_, gs), (_, es) in zip(got, want):
                    assert gs == pytest.approx(es, abs=1e-12)


class TestAverageRanks:
    def test_distinct_values(self):
        assert np.allclose(average_ranks(np.array([10.0, 30.0, 20.0])), [1, 3, 2])

    def test_ties_share_mean_rank(self):
        assert np.allclose(average_ranks(np.array([5.0, 1.0, 5.0])), [2.5, 1.0, 2.5])

    def test_all_equal(self):
        assert np.allclose(average_ranks(np.array([2.0, 2.0, 2.0, 2.0])), 2.5)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-2.0, -0.0, 0.0, 0.5, 3.0]) | st.floats(-5.0, 5.0), max_size=40
        )
    )
    def test_matches_scipy_average_rankdata(self, values):
        want = scipy.stats.rankdata(values, method="average")
        assert average_ranks(np.array(values)).tobytes() == want.astype(float).tobytes()


class TestSpearman:
    def test_perfect_agreement(self):
        emb = emb_from({"a": [1, 0], "b": [1, 0.1], "c": [0, 1]})
        data = [("a", "b", 0.9), ("a", "c", 0.1), ("b", "c", 0.3)]
        rep = spearman(emb, data)
        assert rep.coefficient == pytest.approx(1.0)
        assert rep.coverage == 1.0
        assert rep.n_scored == 3

    def test_perfect_reversal(self):
        emb = emb_from({"a": [1, 0], "b": [1, 0.1], "c": [0, 1]})
        data = [("a", "b", 0.1), ("a", "c", 0.9), ("b", "c", 0.7)]
        rep = spearman(emb, data)
        assert rep.coefficient == pytest.approx(-1.0)

    def test_matches_reference_implementation(self, rng):
        words = [f"w{i}" for i in range(10)]
        emb = Embedding(words=words, vectors=rng.normal(size=(10, 5)))
        data = []
        for _ in range(12):
            i, j = rng.choice(10, size=2, replace=False)
            data.append((words[i], words[j], float(rng.uniform(0, 10))))
        for metric in ("cosine", "dot"):
            rep = spearman(emb, data, metric=metric)
            sims = []
            for w1, w2, _ in data:
                v1, v2 = emb.vector(w1), emb.vector(w2)
                if metric == "dot":
                    sims.append(float(v1 @ v2))
                else:
                    sims.append(float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2))))
            want = spearman_ref(sims, [h for _, _, h in data])
            assert rep.coefficient == pytest.approx(want, abs=1e-12)

    def test_oov_pairs_lower_coverage(self):
        emb = emb_from({"a": [1, 0], "b": [0, 1], "c": [1, 1]})
        data = [
            ("a", "b", 0.2),
            ("a", "zzz", 0.5),
            ("b", "c", 0.8),
            ("yyy", "c", 0.1),
        ]
        rep = spearman(emb, data)
        assert rep.n_scored == 2
        assert rep.coverage == pytest.approx(0.5)

    def test_empty_dataset_is_an_error(self):
        emb = emb_from({"a": [1.0], "b": [2.0]})
        with pytest.raises(InsufficientPairsError):
            spearman(emb, [])

    def test_too_few_scorable_pairs(self):
        emb = emb_from({"a": [1, 0], "b": [0, 1]})
        data = [("a", "b", 0.5), ("a", "zzz", 0.4)]
        with pytest.raises(InsufficientPairsError):
            spearman(emb, data)

    def test_constant_model_similarities_score_zero(self):
        emb = emb_from({"a": [1, 0], "b": [2, 0], "c": [3, 0]})
        data = [("a", "b", 0.9), ("a", "c", 0.2), ("b", "c", 0.5)]
        rep = spearman(emb, data)
        assert rep.coefficient == 0.0

    def test_zero_vector_pairs_score_zero_similarity(self):
        emb = emb_from({"a": [0, 0], "b": [1, 0], "c": [1, 1]})
        data = [("a", "b", 0.1), ("b", "c", 0.9), ("a", "c", 0.2)]
        rep = spearman(emb, data)
        assert rep.n_scored == 3
        ref = spearman_ref([0.0, 1 / math.sqrt(2), 0.0], [0.1, 0.9, 0.2])
        assert rep.coefficient == pytest.approx(ref, abs=1e-12)

    def test_invariant_to_monotone_transform_of_scores(self, rng):
        words = [f"w{i}" for i in range(8)]
        emb = Embedding(words=words, vectors=rng.normal(size=(8, 3)))
        data = []
        for _ in range(10):
            i, j = rng.choice(8, size=2, replace=False)
            data.append((words[i], words[j], float(rng.uniform(1, 5))))
        base = spearman(emb, data).coefficient
        warped = [(a, b, math.exp(s)) for a, b, s in data]
        assert spearman(emb, warped).coefficient == pytest.approx(base, abs=1e-12)

    def test_invariant_to_global_rescaling_of_vectors(self, rng):
        words = [f"w{i}" for i in range(8)]
        V = rng.normal(size=(8, 3))
        data = []
        for _ in range(10):
            i, j = rng.choice(8, size=2, replace=False)
            data.append((words[i], words[j], float(rng.uniform(1, 5))))
        a = spearman(Embedding(words=words, vectors=V), data).coefficient
        b = spearman(Embedding(words=words, vectors=3.7 * V), data).coefficient
        assert a == pytest.approx(b, abs=1e-12)
