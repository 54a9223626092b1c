"""Block draws against the per-call generator they replace."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from strsel.rng import SplitMix64

SEEDS = st.integers(0, 2**64 - 1)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("bits"), st.integers(0, 300)),
        st.tuples(st.just("u64"), st.just(0)),
        st.tuples(st.just("below"), st.integers(1, 1000)),
    ),
    max_size=8,
)


@given(SEEDS, OPS)
@example(0, [("bits", 0)])
@example(2**64 - 1, [("bits", 5), ("u64", 0), ("bits", 0), ("below", 7), ("bits", 64)])
def test_bits_equals_next_bit_calls_and_keeps_the_state_in_step(seed, ops):
    block, single = SplitMix64(seed), SplitMix64(seed)
    for op, arg in ops:
        if op == "bits":
            drawn = block.bits(arg)
            assert drawn.dtype == np.uint8 and drawn.shape == (arg,)
            assert drawn.tolist() == [single.next_bit() for _ in range(arg)]
        elif op == "u64":
            assert block.next_u64() == single.next_u64()
        else:
            assert block.next_below(arg) == single.next_below(arg)
    assert block.next_u64() == single.next_u64()
