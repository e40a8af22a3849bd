import dataclasses
import pickle

import numpy as np
import pytest

from glmavg import (
    CandidateModel,
    CapacityError,
    DataError,
    ModelSet,
    enumerate_all_subsets,
    nested_sequence,
    subset_columns,
    subset_point,
)


class TestCandidateModel:
    def test_dim(self):
        assert CandidateModel((0, 2), 3).dim == 5

    def test_indices_must_increase(self):
        with pytest.raises(DataError):
            CandidateModel((2, 1), 1)
        with pytest.raises(DataError):
            CandidateModel((1, 1), 1)

    def test_negative_index_rejected(self):
        with pytest.raises(DataError):
            CandidateModel((-1,), 1)

    def test_empty_model_rejected(self):
        with pytest.raises(DataError):
            CandidateModel((), 0)

    def test_column_indices_layout(self):
        assert CandidateModel((0, 2), 2).column_indices() == [0, 1, 2, 4]

    def test_columns_are_built_once_and_are_not_a_field(self):
        model = CandidateModel((0, 2), 2)
        assert model.columns == (0, 1, 2, 4)
        assert model.columns is model.columns
        assert model.column_indices() is not model.column_indices()  # a new list each call
        twin = pickle.loads(pickle.dumps(model))
        assert twin == model and hash(twin) == hash(model) and twin.columns == model.columns
        assert repr(model) == "CandidateModel(included=(0, 2), p_fixed=2)"
        assert [f.name for f in dataclasses.fields(model)] == ["included", "p_fixed"]
        assert ModelSet([model], 3).to_jsonl() == '{"p_fixed": 2, "q": 3, "included": [0, 2]}\n'


class TestModelSet:
    def test_rejects_duplicates(self):
        with pytest.raises(DataError):
            ModelSet([CandidateModel((0,), 1), CandidateModel((0,), 1)], 2)

    def test_rejects_mixed_p_fixed(self):
        with pytest.raises(DataError):
            ModelSet([CandidateModel((0,), 1), CandidateModel((1,), 2)], 3)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(DataError):
            ModelSet([CandidateModel((5,), 1)], 3)

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            ModelSet([], 2)

    def test_repr_names_its_size_and_layout(self):
        assert repr(enumerate_all_subsets(2, 3)) == "ModelSet(8 models, p_fixed=2, q=3)"

    def test_jsonl_round_trip(self):
        ms = enumerate_all_subsets(2, 3)
        assert ModelSet.from_jsonl(ms.to_jsonl()) == ms

    def test_jsonl_bad_line_reports_position(self):
        with pytest.raises(DataError, match="line 2"):
            ModelSet.from_jsonl('{"p_fixed": 1, "q": 2, "included": []}\nnot json\n')

    @pytest.mark.parametrize(
        "record",
        [
            '{"p_fixed": 1.9, "q": 2, "included": [0]}',
            '{"p_fixed": 1, "q": 2.0, "included": [0]}',
            '{"p_fixed": 1, "q": 2, "included": [0.5]}',
            '{"p_fixed": 1, "q": 2, "included": "01"}',
            '{"p_fixed": 1, "q": 2, "included": [true]}',
            '{"p_fixed": true, "q": 2, "included": [0]}',
            '{"p_fixed": 1, "q": "2", "included": [0]}',
            '{"p_fixed": 1, "q": 2, "included": {"0": 1}}',
        ],
        ids=[
            "float-p_fixed", "float-q", "float-index", "string-included", "bool-index",
            "bool-p_fixed", "string-q", "object-included",
        ],
    )
    def test_jsonl_non_integer_fields_rejected(self, record):
        # a record is read exactly or not at all: 1.9 is not truncated to 1, "01" is not (0, 1)
        with pytest.raises(DataError, match="bad model record on line 2"):
            ModelSet.from_jsonl('{"p_fixed": 1, "q": 2, "included": []}\n' + record + "\n")


class TestEnumerateAllSubsets:
    def test_q_zero_single_model(self):
        ms = enumerate_all_subsets(1, 0)
        assert len(ms) == 1
        assert ms[0].included == ()

    def test_two_to_the_q_models(self):
        assert len(enumerate_all_subsets(5, 5)) == 32

    def test_binary_counting_order(self):
        ms = enumerate_all_subsets(1, 2)
        assert [m.included for m in ms] == [(), (0,), (1,), (0, 1)]

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            enumerate_all_subsets(1, 21)

    def test_deterministic(self):
        assert enumerate_all_subsets(2, 4) == enumerate_all_subsets(2, 4)


class TestNestedSequence:
    def test_matches_drop_from_front_ladder(self):
        ms = nested_sequence(5, 5)
        assert [m.included for m in ms] == [
            (0, 1, 2, 3, 4),
            (1, 2, 3, 4),
            (2, 3, 4),
            (3, 4),
            (4,),
            (),
        ]

    def test_q_zero(self):
        ms = nested_sequence(1, 0)
        assert len(ms) == 1 and ms[0].included == ()

    def test_sizes_descend(self):
        ms = nested_sequence(1, 3)
        assert [len(m.included) for m in ms] == [3, 2, 1, 0]


class TestSubsetting:
    def test_subset_columns_picks_fixed_then_optional(self):
        eye = np.eye(3)
        model = CandidateModel((1,), 1)
        np.testing.assert_array_equal(subset_columns(eye, model), eye[:, [0, 2]])

    def test_empty_optional_gives_fixed_block(self):
        X = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(
            subset_columns(X, CandidateModel((), 2)), X[:, :2]
        )

    def test_full_model_identity(self):
        X = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(
            subset_columns(X, CandidateModel((0, 1), 2)), X
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            subset_columns(np.eye(2), CandidateModel((3,), 1))

    def test_subset_point(self):
        x = np.array([1.0, 5.0, 7.0])
        model = CandidateModel((1,), 1)
        np.testing.assert_array_equal(subset_point(x, model), [1.0, 7.0])
        np.testing.assert_array_equal(subset_point(x, CandidateModel((), 1)), [1.0])
        np.testing.assert_array_equal(
            subset_point(x, CandidateModel((0, 1), 1)), x
        )
