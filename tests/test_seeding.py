import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privagg import EnsembleConfig, LambdaGrid, MechanismParams, PrivacyLedger, VoteHistogram
from privagg.oracle import mc_outcome_frequencies
from privagg.seeding import _BLOCK, derive_rng
from privagg.verification import soundness_sweep

# The seed domain is [0, 2^64); OUTSIDE are seeds derive_rng refuses.
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1]
OUTSIDE = [-(2**70) - 3, -(2**64), -1, 2**64, 2**64 + 5, 2**128 - 1]
ITEMS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64 + 3]


def reference(seed, *path):
    """The stream numpy builds from a SeedSequence, which derive_rng reproduces."""
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, path)))
    return np.random.Generator(np.random.PCG64(seq))


def assert_same_stream(seed, path):
    ours, theirs = derive_rng(seed, *path), reference(seed, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert ours.random(16).tobytes() == theirs.random(16).tobytes()


seeds = st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**64 - 1))
items = st.one_of(st.sampled_from(ITEMS), st.integers(0, 2**80))


@settings(max_examples=300)
@given(seed=seeds, path=st.lists(items, max_size=4))
@example(seed=0, path=[])
@example(seed=2**64 - 1, path=[0, 2**32 - 1, 2**32, 2**64 + 3])
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


@pytest.mark.parametrize("seed", [0, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("head", [(), (0,), (0, 3)])
def test_block_edges(seed, head):
    for item in BLOCK_EDGES:
        assert_same_stream(seed, [*head, item])


def seed_error(seed) -> str:
    """The one message every entry point gives for a seed outside [0, 2^64)."""
    return re.escape(f"seed must be an integer in [0, 2**64), got {seed!r}")


@pytest.mark.parametrize("seed", OUTSIDE)
@pytest.mark.parametrize("path", [(), (0,), (0, 7), (0, 2**64 + 3)])
def test_seed_outside_the_domain_is_refused(seed, path):
    # numpy would refuse a negative seed and take 2^64 and up as more
    # entropy words; derive_rng refuses both, so no stream has two seeds.
    with pytest.raises(ValueError, match=seed_error(seed)):
        derive_rng(seed, *path)


@pytest.mark.parametrize("seed", [-1, 2**64, 2**128 - 1])
@pytest.mark.parametrize("entry", [
    lambda seed: MechanismParams(gamma=0.05, seed=seed),
    lambda seed: PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid.default(), seed=seed),
    lambda seed: EnsembleConfig(seed=seed),
    lambda seed: mc_outcome_frequencies(VoteHistogram((3, 1)), 0.05, 10, seed=seed),
    lambda seed: soundness_sweep(3, seed=seed),
], ids=["MechanismParams", "PrivacyLedger", "EnsembleConfig", "mc_outcome_frequencies",
        "soundness_sweep"])
def test_every_entry_point_refuses_the_seed(seed, entry):
    with pytest.raises(ValueError, match=seed_error(seed)):
        entry(seed)


@pytest.mark.parametrize("seed", [2**64 - 1, np.uint64(2**64 - 1), np.int64(0)])
def test_domain_edges_are_accepted_everywhere(seed):
    assert MechanismParams(gamma=0.05, seed=seed).seed == int(seed)
    assert PrivacyLedger(gamma=0.05, lambda_grid=LambdaGrid.default(), seed=seed).seed == int(seed)
    assert EnsembleConfig(seed=seed).seed == int(seed)
    assert_same_stream(seed, [0, 0])


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
