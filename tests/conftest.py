import sys

import numpy as np
import pytest

from coocvec import WindowSpec, count_encoded
from helpers import encode_records


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def abab_stats():
    """Counts for the four-token corpus a b a b with a symmetric 1/1 window."""
    vocab, tokens = encode_records([["a", "b", "a", "b"]])
    return count_encoded(tokens, vocab, WindowSpec(left=1, right=1))


@pytest.fixture
def abab_left_stats():
    """Same corpus, left-only window, which breaks the symmetry condition."""
    vocab, tokens = encode_records([["a", "b", "a", "b"]])
    return count_encoded(tokens, vocab, WindowSpec(left=1, right=0))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Repeat the acceptance verdict lines after the capture-happy test phase."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None)
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
