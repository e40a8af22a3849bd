import numpy as np
import pytest

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
        with pytest.raises(TypeError):
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
