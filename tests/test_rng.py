import numpy as np
import pytest

import glmavg.rng as rng
from glmavg import DataError, derive_seed, substream


class TestSubstream:
    def test_same_keys_same_stream(self):
        a = substream(3, "design", 7).standard_normal(5)
        b = substream(3, "design", 7).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_any_key_change_decorrelates(self):
        base = substream(3, "design", 7).standard_normal(5)
        for other in (substream(4, "design", 7), substream(3, "noise", 7), substream(3, "design", 8)):
            assert not np.array_equal(base, other.standard_normal(5))

    def test_string_keys_do_not_use_builtin_hash(self):
        # frozen canary: catches any change to the stream-derivation
        # algorithm, which would silently break stored-report
        # reproducibility (builtin hash() is salted per process and
        # would fail this immediately)
        got = substream(0, "canary").integers(0, 2**32, size=3)
        np.testing.assert_array_equal(got, [599169232, 4054965945, 4019774257])

    def test_rejects_unhashable_key_types(self):
        with pytest.raises(DataError, match="^stream keys must be int or str, got float$"):
            substream(0, 1.5)

    def test_negative_seed_or_key_is_a_data_error(self):
        with pytest.raises(DataError, match="seed and integer stream keys must be non-negative, got -1"):
            substream(-1)
        with pytest.raises(DataError, match="seed and integer stream keys must be non-negative, got -2"):
            substream(0, "band", -2)

    def test_integer_and_numpy_integer_keys_agree(self):
        a = substream(0, np.int64(12)).standard_normal(3)
        b = substream(0, 12).standard_normal(3)
        np.testing.assert_array_equal(a, b)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "split", 2) == derive_seed(5, "split", 2)

    def test_distinct_keys_distinct_seeds(self):
        seeds = {derive_seed(5, "split", r) for r in range(100)}
        assert len(seeds) == 100

    def test_frozen_canary(self):
        assert derive_seed(0, "canary") == 4475981746271602067

    def test_negative_seed_or_key_is_a_data_error(self):
        with pytest.raises(DataError, match="seed and integer stream keys must be non-negative, got -1"):
            derive_seed(-1)
        with pytest.raises(DataError, match="seed and integer stream keys must be non-negative, got -2"):
            derive_seed(0, "cv-split", -2)


# prefixes of 1 to 8 uint32 words: an int seed below 2^32 is one word, one from 2^32 up two,
# a string key two (its SHA-256 int is 64 bits)
PREFIXES = [
    (0,),
    (2**40 + 3,),
    (0, "band"),
    (2**40 + 3, "band"),
    (7, "study2", "logistic"),
    (2**40 + 3, "study2", "logistic"),
    (7, "study1", "A", "x"),
    (2**40 + 3, "study2", "linear", "0.5"),
]
REPS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


class TestStackStreams:
    """``rng._stack_streams`` re-keys one generator per rep to the bits of a fresh ``substream``."""

    @pytest.mark.parametrize("prefix", PREFIXES, ids=[f"{count}-words" for count in range(1, 9)])
    def test_keys_are_seed_sequences(self, prefix):
        keys = rng._checked_keys(*prefix)
        assert rng._key_to_int("band") >= 2**32  # a string key is two words
        for rep, generator in zip(REPS, rng._stack_streams(keys, REPS), strict=True):
            expected = np.random.SeedSequence((*keys, rep)).generate_state(2, np.uint64)
            state = generator.bit_generator.state
            assert state["state"]["key"].tolist() == expected.tolist(), rep
            assert state["state"]["counter"].tolist() == [0, 0, 0, 0]

    def test_word_counts_cover_one_to_eight(self):
        counts = [sum(len(rng._words(key)) for key in rng._checked_keys(*prefix)) for prefix in PREFIXES]
        assert counts == list(range(1, 9))
        assert [len(rng._words(rep)) for rep in REPS] == [1, 1, 1, 2, 2]

    @pytest.mark.parametrize("prefix", PREFIXES[1:4])
    def test_draws_equal_substreams_bit_for_bit(self, prefix):
        keys = rng._checked_keys(*prefix)
        for rep, generator in zip(REPS, rng._stack_streams(keys, REPS), strict=True):
            fresh = substream(*prefix, rep)
            for draw in (
                lambda g: g.standard_normal((7, 3)),
                lambda g: g.random(5),
                lambda g: g.choice(97, size=50, replace=False),
                lambda g: g.normal(0.0, 0.7),
            ):
                assert np.asarray(draw(generator)).tobytes() == np.asarray(draw(fresh)).tobytes(), rep

    def test_one_generator_and_an_unread_stream_per_rep(self):
        keys = rng._checked_keys(3, "band")
        streams = rng._stack_streams(keys, range(4))
        first = next(streams)
        first.random(3)  # a partly read stream, the leftover 32-bit half of a draw included
        first.integers(0, 2**32, dtype=np.uint32)
        second = next(streams)
        assert second is first
        fresh = substream(3, "band", 1)
        assert second.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == fresh.integers(
            0, 2**32, size=3, dtype=np.uint32
        ).tolist()
        assert second.random(4).tobytes() == fresh.random(4).tobytes()

    def test_negative_rep_is_a_data_error(self):
        with pytest.raises(DataError, match="non-negative, got -1"):
            list(rng._stack_streams(rng._checked_keys(0), [0, -1]))
