"""The one range check of a setting, `errors.check_at_least`, at its edges."""
import math

import numpy as np
import pytest

from coocvec.errors import InvalidOptionError, InvalidShiftError, check_at_least, check_shift

HUGE = 10**400  # math.isfinite(HUGE) overflows; a comparison does not


@pytest.mark.parametrize("low", [0, 1, 0.5])
@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("value, passes", [
    (math.nan, False), (math.inf, False), (-math.inf, False), ("low", "unless strict"),
    ("just below low", False), (HUGE, True),
], ids=["nan", "inf", "-inf", "low", "just-below-low", "400-digit-int"])
def test_range_check_edges(low, strict, value, passes):
    value = {"low": low, "just below low": math.nextafter(low, -math.inf)}.get(value, value)
    if passes == "unless strict":
        passes = not strict
    if passes:
        check_at_least("setting", value, low, strict=strict)
        return
    with pytest.raises(InvalidOptionError) as refused:
        check_at_least("setting", value, low, strict=strict)
    sign = ">" if strict else ">="
    assert str(refused.value) == f"setting must be a finite number {sign} {low}, got {value}"


def test_an_array_passes_only_if_every_element_does():
    check_at_least("lam", np.array([0.0, 1.0, 1e300]), 0)
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidOptionError, match="lam must be"):
            check_at_least("lam", np.array([0.0, bad, 1.0]), 0)


def test_the_error_class_is_the_callers():
    with pytest.raises(InvalidShiftError, match=r"^shift k must be a finite number >= 1, got nan$"):
        check_shift(math.nan)
    check_shift(HUGE)
