"""Seeded random matrices used by generators, sweeps and property tests."""

from __future__ import annotations

import numpy as np


def complex_gaussian(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Matrix with independent standard complex Gaussian entries."""
    return (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    ) / np.sqrt(2.0)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random unitary via QR of a complex Gaussian matrix.

    The R-diagonal phases are absorbed so the distribution does not depend
    on the QR sign convention.
    """
    if dim == 0:
        return np.zeros((0, 0), dtype=complex)
    q, r = np.linalg.qr(complex_gaussian(dim, dim, rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d))

