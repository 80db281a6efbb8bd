"""Basis-quality constants computed from the synthesis matrix spectrum.

Every constant here is an exact spectral quantity: the Hilbertian constant is
the largest singular value of the synthesis matrix, the Besselian constant the
reciprocal of the smallest (infinity once the columns are dependent), and the
two-sided Riesz constant their maximum.  Infinity is represented by
float('inf') in memory and by the string "inf" in serialized output.

The separation and Schauder constants come from one reduced QR factorization
cols = Q R of the m independent columns, in the m x m coordinates of R:

* the coordinate functionals are the rows of R^-1 Q^H, so the distance from
  f_j to the span of the others is 1 / ||row j of R^-1||;
* the prefix projector onto the first p vectors along the rest is
  Q [[I, R12 R22^-1], [0, 0]] Q^H with R12 = R[:p, p:] and R22 = R[p:, p:],
  so its norm is sqrt(1 + ||R12 R22^-1||^2).  The block-triangular inverse
  gives R12 R22^-1 = -R11 (R^-1)12, so separation and every prefix read the
  one R^-1 that a single triangular solve forms.

The singular values of R are those of cols.  Columns that are dependent (more
vectors than dimensions, or rank below m at relative tolerance RANK_RTOL) have
separation exactly 0 and infinite Besselian and Schauder constants.  Every
singular value and rank decision here comes from one kernel, _factor, and
every operator 2-norm from one kernel, _operator_norm.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VectorSystem, _arithmetic, gram
from .errors import CountMismatch, TooFewVectors

RANK_RTOL = 1e-12


def _rank(svals: np.ndarray) -> int:
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_RTOL * svals[0]))


def _factor(cols: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Singular values of cols and the R of cols = Q R, or None for dependent columns.

    More columns than rows are dependent without a QR; one SVD of cols then
    gives the singular values.  Columns with no nonzero imaginary part are
    factored as float64, so R is then float64 too.
    """
    cols = _arithmetic(cols)
    n, m = cols.shape
    if m > n:
        return np.linalg.svd(cols, compute_uv=False), None
    r = np.linalg.qr(cols, mode="r")
    svals = np.linalg.svd(r, compute_uv=False)
    if _rank(svals) < m:
        return svals, None
    return svals, r


def singular_values(system: VectorSystem) -> np.ndarray:
    """Singular values of the synthesis matrix, nonincreasing."""
    return _factor(system.columns)[0]


def smallest_singular_value(columns: np.ndarray) -> float:
    """sigma_min of the columns as a map from coefficient space.

    Zero when there are more columns than rows.  Read off the columns'
    factorization, not the Gram matrix, so values near zero carry no
    sqrt-amplified eigenvalue dust.
    """
    k = columns.shape[1]
    if k > columns.shape[0]:
        return 0.0
    return float(_factor(columns)[0][k - 1])


def _hilbertian_besselian(svals: np.ndarray, r: np.ndarray | None) -> tuple[float, float]:
    """(sigma_max, 1/sigma_min) from _factor's output; Besselian inf for dependent columns."""
    return float(svals[0]), (math.inf if r is None else float(1.0 / svals[-1]))


def _operator_norm(mat: np.ndarray) -> float:
    """||mat||_2 as the root of the largest eigenvalue of the Gram of mat's smaller side."""
    if mat.shape[1] > mat.shape[0]:
        mat = mat.conj().T
    return math.sqrt(float(np.linalg.eigvalsh(gram(mat))[-1]))


def _separation(r: np.ndarray | None) -> tuple[float, np.ndarray | None]:
    """(min_j 1 / ||row j of R^-1||, R^-1) from one triangular solve, or (0.0, None)."""
    if r is None:
        return 0.0, None
    # imported at first use, so that importing framekit (every CLI call) does not load scipy
    import scipy.linalg

    r_inv = scipy.linalg.solve_triangular(r, np.eye(r.shape[0], dtype=r.dtype))
    return float(1.0 / np.linalg.norm(r_inv, axis=1).max()), r_inv


def _schauder(r: np.ndarray | None, r_inv: np.ndarray | None) -> float:
    """max over prefixes p of sqrt(1 + ||R[:p, :p] (R^-1)[:p, p:]||^2), or inf."""
    if r is None:
        return math.inf
    constant = 1.0
    for p in range(1, r.shape[0]):
        # R12 R22^-1 = -R11 (R^-1)12, and the sign does not change the norm
        coupling = _operator_norm(r[:p, :p] @ r_inv[:p, p:])
        constant = max(constant, math.hypot(1.0, coupling))
    return constant


def _ordered_columns(system: VectorSystem, order) -> np.ndarray:
    m = system.count
    if order is None:
        return system.columns
    order = list(order)
    if sorted(order) != list(range(m)):
        raise CountMismatch(f"order must be a permutation of 0..{m - 1}")
    return system.columns[:, order]


def hilbertian_besselian(system: VectorSystem) -> tuple[float, float]:
    """(L, Bess): the tight upper and lower coefficient-inequality constants.

    L bounds ||sum a_i f_i|| <= L ||a|| and equals sigma_max; Bess bounds
    Bess * ||sum a_i f_i|| >= ||a|| and equals 1/sigma_min, or infinity when
    the columns are linearly dependent.
    """
    return _hilbertian_besselian(*_factor(system.columns))


def riesz_constant(system: VectorSystem) -> float:
    """Two-sided equivalence constant to an orthonormal family: max(L, Bess)."""
    hilbertian, besselian = hilbertian_besselian(system)
    return max(hilbertian, besselian)


def schauder_basis_constant(system: VectorSystem, order=None) -> float:
    """Largest prefix-projection norm in the given evaluation order.

    The constant is the smallest K with ||sum_{i<=p} a_i f_i|| bounded by
    K ||sum_i a_i f_i|| over all proper prefixes p and coefficient choices;
    it is order-dependent.  Returns infinity for dependent columns.  With the
    columns in evaluation order factored as Q R, the prefix-p projection has
    norm sqrt(1 + ||R12 R22^-1||^2), and R12 R22^-1 = -R11 (R^-1)12 reads
    every prefix off one R^-1.  Each of the m - 1 norms is exact, from
    _operator_norm.
    """
    r = _factor(_ordered_columns(system, order))[1]
    return _schauder(r, _separation(r)[1])


def separation_constant(system: VectorSystem) -> float:
    """min_j distance from f_j to the span of the remaining vectors.

    Equal to min_j 1 / ||row j of R^-1|| for independent columns cols = Q R,
    and exactly 0.0 for dependent ones.
    """
    m = system.count
    if m < 2:
        raise TooFewVectors("separation needs at least two vectors")
    if m > system.dim:
        return 0.0
    return _separation(_factor(system.columns)[1])[0]


def separation_and_norm(system: VectorSystem) -> tuple[float, float]:
    """(separation, sigma_max) from one factorization.

    A single vector's separation is its norm, as in basis_metrics.
    """
    svals, r = _factor(system.columns)
    return _separation(r)[0], float(svals[0])


def _kernel_split(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors of a Hermitian PSD Gram split into (range, kernel, range eigenvalues)."""
    vals, vecs = np.linalg.eigh(gram)
    vals = np.maximum(vals, 0.0)
    cutoff = RANK_RTOL * (vals[-1] if vals.size else 0.0)
    keep = vals > cutoff
    return vecs[:, keep], vecs[:, ~keep], vals[keep]


def equivalence_constant(system_a: VectorSystem, system_b: VectorSystem) -> float:
    """Smallest K with K^-1 ||sum a_i f_i|| <= ||sum a_i g_i|| <= K ||sum a_i f_i||.

    Computed from the extreme generalized eigenvalues of the Gram pencil
    (Gram_B, Gram_A); infinite when the two coefficient kernels differ.
    """
    if system_a.count != system_b.count:
        raise CountMismatch(
            f"counts differ: {system_a.count} vs {system_b.count}"
        )
    gram_a = system_a.gram()
    gram_b = system_b.gram()
    range_a, null_a, vals_a = _kernel_split(gram_a)
    range_b, null_b, vals_b = _kernel_split(gram_b)
    if range_a.shape[1] != range_b.shape[1]:
        return math.inf
    if range_a.shape[1] == 0:
        return 1.0  # both systems are identically zero
    scale_a = float(vals_a.max())
    scale_b = float(vals_b.max())
    if null_a.shape[1]:
        if _operator_norm(gram_b @ null_a) > 1e-9 * scale_b:
            return math.inf
        if _operator_norm(gram_a @ null_b) > 1e-9 * scale_a:
            return math.inf
    reduced_a = gram(system_a.columns @ range_a)
    reduced_b = gram(system_b.columns @ range_a)
    import scipy.linalg  # at first use, as in _separation

    pencil = scipy.linalg.eigh(reduced_b, reduced_a, eigvals_only=True)
    lo = max(float(pencil[0]), 0.0)
    hi = max(float(pencil[-1]), 0.0)
    if lo == 0.0:
        return math.inf
    return max(math.sqrt(hi), 1.0 / math.sqrt(lo))


@dataclass(frozen=True)
class BasisMetrics:
    """All basis-quality constants of one system at one evaluation order."""

    riesz: float
    hilbertian: float
    besselian: float
    schauder: float
    separation: float
    singular_values: tuple[float, ...]


def basis_metrics(system: VectorSystem, order=None) -> BasisMetrics:
    """Aggregate every constant from one factorization of the ordered columns.

    Separation and the singular values do not depend on the order; a single
    vector gets separation = its norm.
    """
    svals, r = _factor(_ordered_columns(system, order))
    separation, r_inv = _separation(r)
    hilbertian, besselian = _hilbertian_besselian(svals, r)
    return BasisMetrics(
        riesz=max(hilbertian, besselian),
        hilbertian=hilbertian,
        besselian=besselian,
        schauder=_schauder(r, r_inv),
        separation=separation,
        singular_values=tuple(float(s) for s in svals),
    )
