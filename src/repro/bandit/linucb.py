"""Pure-Python ridge regression for the C³-UCB arm model.

The bandit's reward model is classical LinUCB state: a design matrix
``V = lambda*I + sum x x^T`` and response vector ``b = sum r x`` over
every (feature, reward) observation, giving the ridge estimate
``theta = V^-1 b`` and the confidence width ``sqrt(x^T V^-1 x)`` (the
ellipsoid shrinks along directions the data has covered).

``V`` is symmetric positive definite (the ridge prior keeps it so), so
neither quantity needs ``V^-1``: one Cholesky factor ``V = L L^T`` per
model state turns the width into a forward substitution
(``x^T V^-1 x = |L^-1 x|^2``, non-negative by construction) and
``theta`` into a forward plus a back substitution.  No numpy: the
feature dimension is tiny (~10) and the CI image only ships the test
toolchain.  ``tests/bandit/oracle.py`` keeps the Gauss-Jordan inverse
this replaced as the reference the arithmetic is held against.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import mul
from typing import Dict, List, Optional, Sequence


def cholesky(matrix: Sequence[Sequence[float]]) -> List[List[float]]:
    """The lower-triangular ``L`` with ``L L^T = matrix``, row ``i``
    holding its ``i + 1`` entries up to the diagonal.

    Only the lower triangle of ``matrix`` is read.  Each inner product
    is a C-level ``sum(map(mul, ...))`` that stops at the shorter
    operand (the row under construction).

    Raises:
        ValueError: if a pivot is not positive (the matrix is not
            positive definite, or holds a NaN).
    """
    factor: List[List[float]] = []
    for i, source in enumerate(matrix):
        row: List[float] = []
        for j in range(i):
            above = factor[j]
            row.append((source[j] - sum(map(mul, row, above))) / above[j])
        pivot = source[i] - sum(map(mul, row, row))
        if not pivot > 0.0:
            raise ValueError("matrix is not positive definite")
        row.append(math.sqrt(pivot))
        factor.append(row)
    return factor


def forward_solve(factor: Sequence[Sequence[float]], x: Sequence[float]) -> List[float]:
    """``L^-1 x`` by forward substitution."""
    z: List[float] = []
    for row, xi in zip(factor, x):
        z.append((xi - sum(map(mul, row, z))) / row[-1])
    return z


class RidgeModel:
    """Shared linear reward model over arm feature vectors.

    Args:
        dim: Feature dimension.
        lambda_reg: Ridge regularizer (prior precision).
        forgetting: Decay ``gamma`` applied by :meth:`decay`; 1.0
            disables forgetting.

    Attributes:
        updates: Total reward observations folded in (survives decay --
            it counts evidence seen, not evidence remaining).
    """

    def __init__(self, dim: int, lambda_reg: float = 1.0, forgetting: float = 1.0) -> None:
        if dim < 1:
            raise ValueError("dim must be positive")
        if lambda_reg <= 0.0:
            raise ValueError("lambda_reg must be positive")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        self.dim = dim
        self.lambda_reg = lambda_reg
        self.forgetting = forgetting
        self.v = [
            [lambda_reg if i == j else 0.0 for j in range(dim)] for i in range(dim)
        ]
        self.b = [0.0] * dim
        self.updates = 0
        # Derived from (v, b); dropped whenever either moves.
        self._factor: Optional[List[List[float]]] = None
        self._theta: Optional[List[float]] = None

    # ------------------------------------------------------------------
    def update(self, x: Sequence[float], reward: float) -> None:
        """Fold one (feature, reward) observation into ``V`` and ``b``."""
        if len(x) != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {len(x)}")
        for i in range(self.dim):
            xi = x[i]
            if xi == 0.0:
                continue
            row = self.v[i]
            for j in range(self.dim):
                row[j] += xi * x[j]
            self.b[i] += reward * xi
        self.updates += 1
        self._factor = self._theta = None

    def decay(self) -> None:
        """Age the evidence: ``V <- gamma V + (1-gamma) lambda I``.

        The blend keeps ``V`` anchored at the ridge prior (never less
        positive definite than ``lambda*I``), so the confidence widths
        re-expand toward their cold-start values as old rewards fade --
        exactly the re-exploration a drifting workload needs.
        """
        g = self.forgetting
        if g >= 1.0:
            return
        for i in range(self.dim):
            row = self.v[i]
            for j in range(self.dim):
                row[j] *= g
            row[i] += (1.0 - g) * self.lambda_reg
            self.b[i] *= g
        self._factor = self._theta = None

    # ------------------------------------------------------------------
    def _cholesky(self) -> List[List[float]]:
        if self._factor is None:
            self._factor = cholesky(self.v)
        return self._factor

    def theta(self) -> List[float]:
        """The ridge point estimate ``V^-1 b`` (evaluated once per model
        state; callers must not modify the returned list)."""
        if self._theta is None:
            factor = self._cholesky()
            y = forward_solve(factor, self.b)
            # Back substitution on L^T in place, last component first:
            # each solved one leaves those above it through its row of L.
            for i in range(self.dim - 1, -1, -1):
                row = factor[i]
                t = y[i] = y[i] / row[i]
                for k in range(i):
                    y[k] -= row[k] * t
            self._theta = y
        return self._theta

    def mean(self, x: Sequence[float]) -> float:
        """Predicted reward ``theta^T x``."""
        return sum(map(mul, self.theta(), x))

    def width(self, x: Sequence[float]) -> float:
        """Confidence width ``sqrt(x^T V^-1 x)`` (unscaled by alpha)."""
        z = forward_solve(self._cholesky(), x)
        return math.sqrt(sum(map(mul, z, z)))

    def ucb(self, x: Sequence[float], alpha: float) -> float:
        """Optimistic reward estimate ``theta^T x + alpha * width(x)``."""
        return self.mean(x) + alpha * self.width(x)

    # ------------------------------------------------------------------
    def to_snapshot(self) -> Dict:
        """JSON-compatible serialization."""
        return {
            "dim": self.dim,
            "lambda_reg": self.lambda_reg,
            "forgetting": self.forgetting,
            "v": [list(row) for row in self.v],
            "b": list(self.b),
            "updates": self.updates,
        }

    @classmethod
    def from_snapshot(cls, data: Dict) -> "RidgeModel":
        """Inverse of :meth:`to_snapshot`.

        Raises:
            ValueError: if ``v`` or ``b`` has the wrong shape or a
                non-finite entry, or ``v`` is not symmetric (beyond 1e-9
                relative; the factor reads one triangle) or not positive
                definite -- a model that would restore cleanly and then
                score every arm NaN, or fail at every close.
        """
        model = cls(
            dim=int(data["dim"]),
            lambda_reg=float(data["lambda_reg"]),
            forgetting=float(data["forgetting"]),
        )
        v = data["v"]
        b = data["b"]
        if len(v) != model.dim or any(len(row) != model.dim for row in v):
            raise ValueError("snapshot V has wrong shape")
        if len(b) != model.dim:
            raise ValueError("snapshot b has wrong shape")
        model.v = [list(map(float, row)) for row in v]
        model.b = list(map(float, b))
        if not all(map(math.isfinite, chain(model.b, *model.v))):
            raise ValueError("snapshot V or b is not finite")
        for i, row in enumerate(model.v):
            for j in range(i):
                if not math.isclose(row[j], model.v[j][i], rel_tol=1e-9):
                    raise ValueError("snapshot V is not symmetric")
        model._cholesky()  # positive definite, or ValueError
        model.updates = int(data.get("updates", 0))
        return model
