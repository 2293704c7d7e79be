"""A dense matrix as a linear operator: the exact oracle the solver tests
solve against."""

import numpy as np


class MatrixOperator:
    """Dense symmetric matrix wrapped as a linear operator: a finite sum of
    one sample, so each stochastic minibatch is the full product."""

    n_samples = 1

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        self._matrix = matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self._matrix @ v

    def matvec_batch(self, v: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return self.matvec(v)
