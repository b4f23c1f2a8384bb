import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privagg.seeding import _BLOCK, derive_rng

U64 = (1 << 64) - 1
SEEDS = [-(2**70) - 3, -(2**64), -1, 0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 5]
ITEMS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3]


def reference(seed, *path):
    """The stream numpy builds from a SeedSequence, which derive_rng reproduces."""
    seq = np.random.SeedSequence(int(seed) & U64, spawn_key=tuple(map(int, path)))
    return np.random.Generator(np.random.PCG64(seq))


def assert_same_stream(seed, path):
    ours, theirs = derive_rng(seed, *path), reference(seed, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random(16).tobytes() == theirs.random(16).tobytes()


seeds = st.one_of(st.sampled_from(SEEDS), st.integers(-(2**80), 2**80))
items = st.one_of(st.sampled_from(ITEMS), st.integers(0, 2**80))


@settings(max_examples=300)
@given(seed=seeds, path=st.lists(items, max_size=4))
@example(seed=0, path=[])
@example(seed=2**64 + 5, path=[0, 2**32 - 1, 2**32, 2**64 + 3])
def test_stream_equals_seed_sequence(seed, path):
    assert_same_stream(seed, path)


@pytest.mark.parametrize("seed", SEEDS)
def test_no_path(seed):
    assert_same_stream(seed, [])


@pytest.mark.parametrize("seed", SEEDS)
def test_each_edge_item_alone_and_as_a_batch_prefix(seed):
    for item in ITEMS:
        assert_same_stream(seed, [item])
        # These share the prefix (item,), so the second reuses its block.
        assert_same_stream(seed, [item, 7])
        assert_same_stream(seed, [item, 2**40 + 9])


# Around the edges of a block, and of the last item's first, second and
# third 32-bit words.
BLOCK_EDGES = [_BLOCK - 1, _BLOCK, 2 * _BLOCK - 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**80]


@pytest.mark.parametrize("seed", [-1, 0, 2**64 - 1])
@pytest.mark.parametrize("head", [(), (0,), (0, 3)])
def test_block_edges(seed, head):
    for item in BLOCK_EDGES:
        assert_same_stream(seed, [*head, item])


def test_consecutive_items_across_three_blocks():
    # The order in which mechanism.noisy_labels walks one stream prefix.
    for i in range(3 * _BLOCK):
        words = derive_rng(21, 0, 2, i).bit_generator.seed_seq.words
        expected = np.random.SeedSequence(21, spawn_key=(0, 2, i)).generate_state(4, np.uint64)
        assert words.tolist() == expected.tolist(), i


def test_block_words_cannot_be_written():
    rng = derive_rng(5, 0, 7)
    with pytest.raises(ValueError, match="read-only"):
        rng.bit_generator.seed_seq.words[0] = 1
    # A later stream of the same block still matches, and pickles.
    assert_same_stream(5, [0, 7])
    later = derive_rng(5, 0, 8)
    assert_same_stream(5, [0, 8])
    assert pickle.loads(pickle.dumps(later)).random(8).tobytes() == later.random(8).tobytes()


def test_numpy_integer_items_match_python_ints():
    assert_same_stream(np.uint64(2**63), [np.int64(3), np.uint32(2**32 - 1)])


@pytest.mark.parametrize("path", [(-1,), (0, -1), (-2, 5), (0, 3, -(2**70))])
def test_negative_item_raises_as_numpy_does(path):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        reference(4, *path)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_rng(4, *path)


@pytest.mark.parametrize("seed, path", [
    (0, (0, 1.5)), (0, (0.0, 5)), (2.9, ()), (2.0, (0,)), ("7", (0,)),
    (0, (np.float64(1.0),))])
def test_non_integer_seed_or_item_raises_as_numpy_does(seed, path):
    with pytest.raises(TypeError):
        np.random.SeedSequence(seed, spawn_key=path)
    # Cache the pool of the integer prefix (0,) first: (0.0,) is an equal key.
    derive_rng(0, 0, 5)
    with pytest.raises(TypeError):
        derive_rng(seed, *path)


def test_pickle_round_trip_keeps_the_stream():
    rng = derive_rng(11, 0, 2, 5)
    copy = pickle.loads(pickle.dumps(rng))
    assert copy.random(8).tobytes() == rng.random(8).tobytes()


def test_seed_sequence_serves_only_pcg64_words():
    seq = derive_rng(11, 0, 5).bit_generator.seed_seq
    assert seq.generate_state(4, np.uint64).tolist() == (
        np.random.SeedSequence(11, spawn_key=(0, 5)).generate_state(4, np.uint64).tolist())
    with pytest.raises(ValueError, match="exactly 4 uint64 words"):
        seq.generate_state(8, np.uint32)


def test_seed_sequence_type_check_is_cached():
    # CPython caches isinstance for a subclass of a registered class only, so
    # the check in each PCG64(...) is then one cache lookup.
    import abc
    from privagg.seeding import _FixedWords
    derive_rng(11, 0, 5)
    _, cache, _, _ = abc._get_dump(np.random.bit_generator.ISeedSequence)
    assert _FixedWords in {ref() for ref in cache}
