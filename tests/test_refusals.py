"""Library inputs that are refused: each raises a plain ValueError that names the input.

Refused before any warning and before any arithmetic on the input, so a
non-finite eps never surfaces as an OverflowError or an unnamed conversion
error, an empty vector never as a division by zero or a count of -1, and a
negative seed not as numpy's unnamed `expected non-negative integer`.
"""

import math
import re
import warnings
from functools import partial

import numpy as np
import pytest

from cdgproc.bounds import (
    CountRegion,
    binomial_tail_count,
    count_cost,
    log2_binomial_tail,
    multinomial_region_count,
)
from cdgproc.distribution import entropy_bits, support_size, tvd_uniform, typical_set_size
from cdgproc.process import as_digit_array, substreams
from cdgproc.stats import class_probability, monte_carlo_frequencies

CASES = [
    (f"{name}-{'mirrored' if mirrored else 'dense'}",
     lambda fn=fn, mirrored=mirrored: fn(np.zeros(0), mirrored=mirrored),
     r"^distribution is empty")
    for name, fn in [("tvd", tvd_uniform), ("entropy", entropy_bits), ("support", support_size),
                     ("typical", partial(typical_set_size, delta=0.01))]
    for mirrored in (False, True)
] + [
    ("tvd-counts", lambda: tvd_uniform(np.zeros(0, np.int64), 5, total=1), r"^distribution is empty"),
    ("substreams-seed", lambda: substreams(-1, 5, 1), r"^seed -1 is negative$"),
] + [
    (f"{fn.__name__}-{eps}", lambda fn=fn, eps=eps: fn(10, eps), rf"^eps {eps} must be finite$")
    for fn in (binomial_tail_count, log2_binomial_tail, count_cost)
    for eps in (math.inf, math.nan)
] + [
    (f"region-{eps}", lambda eps=eps: multinomial_region_count(CountRegion("S", 10, eps)),
     rf"^eps {eps} must be finite$")
    for eps in (math.inf, math.nan)
] + [
    ("digit-matrix", lambda: as_digit_array(np.zeros((2, 2))),
     "^" + re.escape("expected a 1-d digit sequence, got shape (2, 2)") + "$"),
    ("mc-all-zero", lambda: monte_carlo_frequencies(2, 1, 12),
     "^all trials drew the all-zero string; increase n or trials$"),
    ("class-probability-length", lambda: class_probability(-1), r"^length -1 is negative$"),
]


@pytest.mark.parametrize("call, match", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_refused_by_name(call, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            call()
