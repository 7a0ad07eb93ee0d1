"""Tests for the pure-Python ridge model behind the C³-UCB bandit.

The model factors ``V`` (Cholesky) where it used to invert it
(Gauss-Jordan), so its floats are no longer bit-identical with the
arithmetic it replaced; they are held to it by tolerance instead:
``REL`` relative, ``ABS`` absolute, against ``tests/bandit/oracle.py``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandit.linucb import RidgeModel, cholesky, forward_solve

from tests.bandit.oracle import dot, mat_identity, mat_inverse, mat_vec

REL, ABS = 1e-9, 1e-12


def _close(value):
    return pytest.approx(value, rel=REL, abs=ABS)


class TestMatrixHelpers:
    """The oracle's own arithmetic (``tests/bandit/oracle.py``)."""

    def test_identity(self):
        assert mat_identity(2) == [[1.0, 0.0], [0.0, 1.0]]
        assert mat_identity(2, scale=3.0)[0][0] == 3.0

    def test_mat_vec_and_dot(self):
        assert mat_vec([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]) == [3.0, 7.0]
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_inverse_known_2x2(self):
        # [[4,7],[2,6]]^-1 = 1/10 [[6,-7],[-2,4]]
        inv = mat_inverse([[4.0, 7.0], [2.0, 6.0]])
        expected = [[0.6, -0.7], [-0.2, 0.4]]
        for row, want in zip(inv, expected):
            for value, target in zip(row, want):
                assert value == pytest.approx(target)

    def test_inverse_times_original_is_identity(self):
        matrix = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        inv = mat_inverse(matrix)
        for i in range(3):
            col = mat_vec(inv, [matrix[r][i] for r in range(3)])
            for j in range(3):
                assert col[j] == pytest.approx(1.0 if i == j else 0.0)

    def test_singular_matrix_raises(self):
        with pytest.raises(ValueError, match="singular"):
            mat_inverse([[1.0, 2.0], [2.0, 4.0]])

    def test_pivoting_handles_zero_leading_entry(self):
        # Without partial pivoting the first pivot would be 0.
        inv = mat_inverse([[0.0, 1.0], [1.0, 0.0]])
        assert inv == [[0.0, 1.0], [1.0, 0.0]]


class TestCholesky:
    def test_known_factor(self):
        # [[4,2],[2,5]] = [[2,0],[1,2]] [[2,1],[0,2]]
        assert cholesky([[4.0, 2.0], [2.0, 5.0]]) == [[2.0], [1.0, 2.0]]

    def test_factor_times_transpose_is_the_matrix(self):
        matrix = [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        factor = cholesky(matrix)
        assert [len(row) for row in factor] == [1, 2, 3]
        for i in range(3):
            for j in range(i + 1):
                assert dot(factor[i], factor[j]) == pytest.approx(matrix[i][j])

    def test_only_the_lower_triangle_is_read(self):
        lower = cholesky([[4.0, math.nan], [2.0, 5.0]])
        assert lower == cholesky([[4.0, 2.0], [2.0, 5.0]])

    @pytest.mark.parametrize(
        "matrix",
        [
            [[1.0, 2.0], [2.0, 4.0]],  # singular
            [[1.0, 2.0], [2.0, 1.0]],  # indefinite
            [[0.0, 0.0], [0.0, 0.0]],
            [[-1.0]],
            [[math.nan]],
            [[1.0, 0.0], [math.nan, 1.0]],
        ],
    )
    def test_not_positive_definite_raises(self, matrix):
        with pytest.raises(ValueError, match="positive definite"):
            cholesky(matrix)

    def test_forward_solve_inverts_the_factor(self):
        factor = cholesky([[4.0, 2.0], [2.0, 5.0]])
        z = forward_solve(factor, [2.0, 5.0])
        # L z = x with L = [[2,0],[1,2]]: z = [1, 2].
        assert z == [1.0, 2.0]


class TestRidgeModel:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            RidgeModel(0)
        with pytest.raises(ValueError):
            RidgeModel(2, lambda_reg=0.0)
        with pytest.raises(ValueError):
            RidgeModel(2, forgetting=0.0)
        with pytest.raises(ValueError):
            RidgeModel(2, forgetting=1.5)

    def test_update_dimension_check(self):
        model = RidgeModel(2)
        with pytest.raises(ValueError, match="dim"):
            model.update([1.0, 0.0, 0.0], 1.0)

    def test_hand_computed_single_observation(self):
        # dim=2, lambda=1, one observation x=[1,0] with reward 2:
        # V = [[2,0],[0,1]], b = [2,0], theta = [1,0].
        model = RidgeModel(2, lambda_reg=1.0)
        model.update([1.0, 0.0], 2.0)
        assert model.v == [[2.0, 0.0], [0.0, 1.0]]
        assert model.b == [2.0, 0.0]
        assert model.theta() == pytest.approx([1.0, 0.0])
        assert model.mean([1.0, 0.0]) == pytest.approx(1.0)
        # width([1,0]) = sqrt([1,0] V^-1 [1,0]^T) = sqrt(1/2)
        assert model.width([1.0, 0.0]) == pytest.approx(math.sqrt(0.5))
        assert model.ucb([1.0, 0.0], alpha=2.0) == pytest.approx(
            1.0 + 2.0 * math.sqrt(0.5)
        )

    def test_orthogonal_observations_decouple(self):
        model = RidgeModel(2, lambda_reg=1.0)
        model.update([1.0, 0.0], 2.0)
        model.update([0.0, 1.0], 3.0)
        assert model.theta() == pytest.approx([1.0, 1.5])
        assert model.updates == 2

    def test_width_shrinks_with_evidence(self):
        model = RidgeModel(2)
        x = [1.0, 0.5]
        before = model.width(x)
        for _ in range(10):
            model.update(x, 1.0)
        assert model.width(x) < before

    def test_decay_blends_toward_prior(self):
        # gamma=0.5: V <- 0.5 V + 0.5 lambda I, b <- 0.5 b.
        model = RidgeModel(2, lambda_reg=1.0, forgetting=0.5)
        model.update([1.0, 0.0], 2.0)
        model.decay()
        assert model.v == [[1.5, 0.0], [0.0, 1.0]]
        assert model.b == [1.0, 0.0]

    def test_decay_reinflates_confidence(self):
        model = RidgeModel(2, lambda_reg=1.0, forgetting=0.5)
        x = [1.0, 0.0]
        for _ in range(5):
            model.update(x, 1.0)
        narrowed = model.width(x)
        for _ in range(20):
            model.decay()
        # Evidence fades, width re-expands toward the cold-start value
        # (never past it: V stays anchored at lambda*I).
        assert model.width(x) > narrowed
        assert model.width(x) <= RidgeModel(2).width(x) + 1e-9

    def test_decay_noop_without_forgetting(self):
        model = RidgeModel(2, forgetting=1.0)
        model.update([1.0, 1.0], 1.0)
        v_before = [list(row) for row in model.v]
        model.decay()
        assert model.v == v_before

    def test_updates_counter_survives_decay(self):
        model = RidgeModel(2, forgetting=0.5)
        model.update([1.0, 0.0], 1.0)
        model.decay()
        assert model.updates == 1


class TestThetaIsHeldPerModelState:
    def _reference_mean(self, model, x):
        return dot(mat_vec(mat_inverse(model.v), model.b), x)

    def test_mean_tracks_every_update_and_decay(self):
        import random

        rng = random.Random(4)
        model = RidgeModel(dim=4, lambda_reg=0.5, forgetting=0.9)
        arms = [[rng.uniform(-2, 2) for _ in range(4)] for _ in range(6)]
        for step in range(30):
            if step % 7 == 3:
                model.decay()
            else:
                model.update(arms[step % 6], rng.uniform(-1, 3))
            for x in arms:  # several reads per state, as an epoch close does
                assert model.mean(x) == _close(self._reference_mean(model, x))
                assert model.ucb(x, 1.7) == model.mean(x) + 1.7 * model.width(x)

    def test_theta_is_evaluated_once_per_state(self):
        model = RidgeModel(dim=3)
        model.update([1.0, 2.0, 0.5], 2.0)
        held = model.theta()
        assert model.theta() is held
        model.update([0.0, 1.0, 0.0], 1.0)
        assert model.theta() is not held
        held = model.theta()
        model.decay()  # forgetting == 1.0: nothing moved
        assert model.theta() is held

    def test_restored_model_starts_without_a_held_theta(self):
        model = RidgeModel(dim=2, forgetting=0.8)
        model.update([1.0, 3.0], 4.0)
        model.theta()
        restored = RidgeModel.from_snapshot(model.to_snapshot())
        assert restored.theta() == model.theta()
        assert restored.theta() is not model.theta()


# ----------------------------------------------------------------------
# the differential that replaces bit-identity
_features = st.floats(-4.0, 4.0, allow_nan=False)
_steps = st.one_of(
    st.just(None),  # decay
    st.tuples(st.lists(_features, min_size=10, max_size=10), st.floats(-3.0, 3.0)),
)


@given(
    dim=st.integers(1, 10),
    lambda_reg=st.floats(0.1, 10.0),
    forgetting=st.floats(0.5, 1.0),
    steps=st.lists(_steps, min_size=1, max_size=30),
    reads=st.lists(st.lists(_features, min_size=10, max_size=10), min_size=2, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_every_read_tracks_the_gauss_jordan_oracle(
    dim, lambda_reg, forgetting, steps, reads
):
    """``mean``, ``width`` and ``theta`` of every model state reached by
    an ``update`` / ``decay`` interleaving agree with ``V^-1`` taken by
    Gauss-Jordan elimination, and the width needs no clamp at zero."""
    model = RidgeModel(dim, lambda_reg=lambda_reg, forgetting=forgetting)
    for step in steps:
        if step is None:
            model.decay()
        else:
            model.update(step[0][:dim], step[1])
        inverse = mat_inverse(model.v)
        theta = mat_vec(inverse, model.b)
        assert model.theta() == _close(theta)
        for x in (read[:dim] for read in reads):  # several reads per state
            assert model.mean(x) == _close(dot(theta, x))
            width = model.width(x)
            assert width >= 0.0
            assert width == _close(math.sqrt(max(0.0, dot(x, mat_vec(inverse, x)))))


class TestSnapshot:
    def test_round_trip(self):
        model = RidgeModel(3, lambda_reg=2.0, forgetting=0.9)
        model.update([1.0, 0.0, 2.0], 1.5)
        model.update([0.0, 1.0, 0.0], -0.5)
        restored = RidgeModel.from_snapshot(model.to_snapshot())
        assert restored.dim == 3
        assert restored.lambda_reg == 2.0
        assert restored.forgetting == 0.9
        assert restored.v == model.v
        assert restored.b == model.b
        assert restored.updates == 2
        assert restored.theta() == pytest.approx(model.theta())

    def test_snapshot_is_json_shaped(self):
        import json

        model = RidgeModel(2)
        model.update([1.0, 1.0], 1.0)
        assert json.loads(json.dumps(model.to_snapshot())) == model.to_snapshot()

    def test_wrong_v_shape_rejected(self):
        snap = RidgeModel(2).to_snapshot()
        snap["v"] = [[1.0]]
        with pytest.raises(ValueError, match="shape"):
            RidgeModel.from_snapshot(snap)

    def test_wrong_b_shape_rejected(self):
        snap = RidgeModel(2).to_snapshot()
        snap["b"] = [0.0]
        with pytest.raises(ValueError, match="shape"):
            RidgeModel.from_snapshot(snap)

    def _trained_snapshot(self):
        model = RidgeModel(3, lambda_reg=1.0, forgetting=0.9)
        model.update([1.0, 0.5, 2.0], 1.5)
        model.update([0.0, 1.0, -1.0], -0.5)
        return model.to_snapshot()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_v_rejected(self, bad):
        snap = self._trained_snapshot()
        snap["v"][1][2] = snap["v"][2][1] = bad
        with pytest.raises(ValueError, match="finite"):
            RidgeModel.from_snapshot(snap)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_b_rejected(self, bad):
        snap = self._trained_snapshot()
        snap["b"][0] = bad
        with pytest.raises(ValueError, match="finite"):
            RidgeModel.from_snapshot(snap)

    def test_asymmetric_v_rejected(self):
        snap = self._trained_snapshot()
        snap["v"][0][2] += 0.25  # the factor would never read it
        with pytest.raises(ValueError, match="symmetric"):
            RidgeModel.from_snapshot(snap)
        snap = self._trained_snapshot()
        snap["v"][0][2] *= 1.0 + 1e-12  # a last-digit difference is not an error
        RidgeModel.from_snapshot(snap)

    def test_v_that_is_not_positive_definite_rejected(self):
        snap = self._trained_snapshot()
        snap["v"] = [[0.0] * 3 for _ in range(3)]
        with pytest.raises(ValueError, match="positive definite"):
            RidgeModel.from_snapshot(snap)
        snap = self._trained_snapshot()
        snap["v"][0][0] = -snap["v"][0][0]
        with pytest.raises(ValueError, match="positive definite"):
            RidgeModel.from_snapshot(snap)
