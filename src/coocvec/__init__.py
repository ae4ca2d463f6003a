"""Co-occurrence word-vector workbench.

Counts weighted co-occurrences, builds PMI-family matrices, solves per-pair
loss objectives in closed form, applies L1/L2 regularization, factorizes the
results (randomized SVD and curvature-weighted ALS), trains a convex sparse
bag-of-contexts model, and evaluates embeddings on similarity datasets.

Each public name below is resolved on first use (PEP 562), so importing the
package loads no submodule and no numpy.
"""
import importlib

__version__ = "0.1.0"

# module -> the public names it defines; the one list of the package's API
_EXPORTS = {
    "closed_form": (
        "LOSS_NAMES", "PairSolution", "loss_derivative", "loss_second_derivative",
        "loss_value", "minimize_pair_numeric", "objective_value", "pair_objective",
        "solve_pair", "solve_stats",
    ),
    "convex_model": ("ContextSpec", "TrainConfig", "build_examples", "explain", "train"),
    "corpus": ("WindowSpec", "check_symmetry", "count_encoded", "encode_text"),
    "errors": (
        "DegenerateMarginalError", "DimensionMismatchError", "DivergenceError",
        "DomainError", "EmptyVocabularyError", "FormatError", "InsufficientPairsError",
        "InvalidOptionError", "InvalidShiftError", "MarkerContaminationError",
        "MixedProvenanceError", "UnknownWordError", "WorkbenchError",
    ),
    "evaluation": ("SpearmanReport", "neighbors", "spearman"),
    "factorization": (
        "AlsResult", "SvdResult", "consistency_report", "truncated_svd",
        "weighted_factorize", "word_vectors",
    ),
    "formats": (
        "MatrixInfo", "Provenance", "make_provenance", "read_cooc", "read_embedding",
        "read_matrix", "read_provenance", "read_similarity", "read_vocab", "write_cooc",
        "write_embedding", "write_matrix", "write_vocab",
    ),
    "pmi": ("build_matrix", "shifted_pmi"),
    "regularization": (
        "closed_form_report", "h_function", "l2_chord", "regularize_stats", "solve_exact",
        "solve_l1", "solve_l2",
    ),
    "vectors": ("CooccurrenceStats", "Embedding", "SparseMatrix", "Vocabulary"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if name in _EXPORTS:  # a submodule stays reachable without its own import
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
