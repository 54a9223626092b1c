"""Block draws against the per-call generator they replace."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from strsel.rng import SplitMix64, derive_seed, stream_bits

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


@given(st.integers(-(2**70), 2**70), st.integers(0, 20), st.integers(0, 100), st.integers(0, 100))
def test_stream_bits_of_many_states_equals_one_generator_per_trial(seed, trials, lo, width):
    states = derive_seed(seed, np.arange(trials, dtype=np.uint64))
    assert states.tolist() == [derive_seed(seed, t) for t in range(trials)]
    drawn = stream_bits(states, lo, lo + width)
    assert drawn.dtype == np.uint8 and drawn.shape == (trials, width)
    for t in range(trials):
        assert drawn[t].tolist() == SplitMix64(derive_seed(seed, t)).bits(lo + width)[lo:].tolist()
