"""Property: the raw-PCG64 replay's integer threshold is exact.

The vectorized engine decides whether a source fires by comparing the raw
word with ``ceil(rate * 2**53) << 11`` (``_fires``) instead of converting
it to ``Generator.random()``'s double ``(w >> 11) * 2**-53``.  For every
rate in [0, 1] -- exact multiples of 2**-53 and the ends included -- and
every word, in particular the words straddling the threshold, the two
must agree.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.vec import _fires

WORD = st.integers(0, (1 << 64) - 1)
RATES = (
    st.sampled_from([0.0, 2.0**-53, 1 - 2.0**-53, 1.0])
    | st.integers(0, 1 << 53).map(lambda k: k * 2.0**-53)
    | st.floats(0.0, 1.0)
)


def float_fires(raw, rate):
    return ((raw >> np.uint64(11)) * 2.0**-53) < rate


@settings(deadline=None, max_examples=500)
@given(rate=RATES, words=st.lists(WORD, max_size=32), nudge=st.integers(-4096, 4096))
def test_integer_threshold_equals_float_compare(rate, words, nudge):
    c = int(np.ceil(rate * 2.0**53))
    near = [(c << 11) - 1, c << 11, (c << 11) + 2047, (c << 11) + nudge]
    raw = np.array(
        [w for w in near + words if 0 <= w < 1 << 64], dtype=np.uint64
    )
    assert np.array_equal(_fires(raw, rate), float_fires(raw, rate))
