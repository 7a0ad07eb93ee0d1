"""The Gauss-Jordan arithmetic ``RidgeModel`` used before it factored ``V``.

``mat_identity`` / ``mat_vec`` / ``dot`` / ``mat_inverse`` are the
functions ``repro.bandit.linucb`` shipped until the Cholesky factor
replaced them, verbatim: ``theta = V^-1 b`` and ``sqrt(x^T V^-1 x)``
through an explicit inverse.  They are the reference the new arithmetic
is held against (``test_linucb.py``); nothing in ``src/`` imports them.
"""

from operator import mul
from typing import List, Sequence


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
