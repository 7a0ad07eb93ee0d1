"""Pure-Python ridge regression for the C³-UCB arm model.

The bandit's reward model is classical LinUCB state: a design matrix
``V = lambda*I + sum x x^T`` and response vector ``b = sum r x`` over
every (feature, reward) observation, giving the ridge estimate
``theta = V^-1 b`` and the confidence width ``sqrt(x^T V^-1 x)`` (the
ellipsoid shrinks along directions the data has covered).

No numpy: the feature dimension is tiny (~10), so a Gauss-Jordan
inverse with partial pivoting is both fast enough and dependency-free
(the CI image only ships the test toolchain).
"""

from __future__ import annotations

import math
from operator import mul
from typing import Dict, List, Optional, Sequence


def mat_identity(dim: int, scale: float = 1.0) -> List[List[float]]:
    """A ``dim x dim`` scaled identity matrix."""
    return [
        [scale if i == j else 0.0 for j in range(dim)] for i in range(dim)
    ]


def mat_vec(matrix: Sequence[Sequence[float]], vector: Sequence[float]) -> List[float]:
    """Matrix-vector product."""
    return [sum(map(mul, row, vector)) for row in matrix]


def dot(a: Sequence[float], b: Sequence[float]) -> float:
    """Inner product."""
    return sum(map(mul, a, b))


def mat_inverse(matrix: Sequence[Sequence[float]]) -> List[List[float]]:
    """Invert a small square matrix by Gauss-Jordan elimination.

    Partial pivoting keeps the elimination stable; the ridge prior
    ``lambda*I`` guarantees the model's ``V`` is positive definite, so a
    singular pivot only arises on caller error.

    Raises:
        ValueError: if the matrix is (numerically) singular.
    """
    n = len(matrix)
    # Augment [M | I] and reduce in place.
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if abs(aug[pivot_row][col]) < 1e-12:
            raise ValueError("matrix is singular")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for row in range(n):
            if row == col:
                continue
            factor = aug[row][col]
            if factor == 0.0:
                continue
            aug[row] = [
                rv - factor * cv for rv, cv in zip(aug[row], aug[col])
            ]
    return [row[n:] for row in aug]


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
        self.v = mat_identity(dim, lambda_reg)
        self.b = [0.0] * dim
        self.updates = 0
        # Derived from (v, b); dropped whenever either moves.
        self._inv: Optional[List[List[float]]] = None
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
        self._inv = self._theta = None

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
        self._inv = self._theta = None

    # ------------------------------------------------------------------
    def _inverse(self) -> List[List[float]]:
        if self._inv is None:
            self._inv = mat_inverse(self.v)
        return self._inv

    def theta(self) -> List[float]:
        """The ridge point estimate ``V^-1 b`` (evaluated once per model
        state; callers must not modify the returned list)."""
        if self._theta is None:
            self._theta = mat_vec(self._inverse(), self.b)
        return self._theta

    def mean(self, x: Sequence[float]) -> float:
        """Predicted reward ``theta^T x``."""
        return dot(self.theta(), x)

    def width(self, x: Sequence[float]) -> float:
        """Confidence width ``sqrt(x^T V^-1 x)`` (unscaled by alpha)."""
        quad = dot(x, mat_vec(self._inverse(), x))
        return math.sqrt(max(0.0, quad))

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
        """Inverse of :meth:`to_snapshot`."""
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
        model.updates = int(data.get("updates", 0))
        return model
