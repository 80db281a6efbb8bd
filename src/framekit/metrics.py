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
  one R^-1 that a single triangular inverse forms.

The singular values of R are those of cols.  Columns that are dependent (more
vectors than dimensions, or rank below m at relative tolerance RANK_RTOL) have
separation exactly 0 and infinite Besselian and Schauder constants.  Every
singular value here comes from one kernel, _factor (or, in
equivalence_constant, from the SVD of the same R), every rank decision from
one rule, _rank, and every operator 2-norm from one kernel, _operator_norm.

The equivalence constant of F and G is read off the columns as well: the
coefficient kernels agree exactly when F, G and [F / sigma_max(F);
G / sigma_max(G)] have the same _rank, and on the common range the constant
is the larger of sigma_max and 1 / sigma_min of G V_r S_r^-1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import VectorSystem, _arithmetic, gram
from .errors import BadParameter, CountMismatch, TooFewVectors

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
    return float(svals[0]), (math.inf if r is None else 1.0 / float(svals[-1]))


def _upper_frame_bound(sigma_max: float) -> float:
    """The upper frame bound B = sigma_max^2, or BadParameter when it is not a finite double.

    Squared as a numpy scalar under errstate: that calls C pow, as Python's **
    does, so B keeps the bits of sigma_max ** 2, but gives inf where Python
    raises OverflowError.
    """
    with np.errstate(over="ignore"):
        upper = float(np.float64(sigma_max) ** 2)
    if not math.isfinite(upper):
        raise BadParameter(
            f"upper frame bound sigma_max^2 is not a finite double (sigma_max = {sigma_max!r})"
        )
    return upper


def _operator_norm(mat: np.ndarray) -> float:
    """||mat||_2 as the root of the largest eigenvalue of the Gram of mat's smaller side."""
    if mat.shape[1] > mat.shape[0]:
        mat = mat.conj().T
    return math.sqrt(float(np.linalg.eigvalsh(gram(mat))[-1]))


def _separation(r: np.ndarray | None) -> tuple[float, np.ndarray | None]:
    """(min_j 1 / ||row j of R^-1||, R^-1) from one triangular inverse, or (0.0, None)."""
    if r is None:
        return 0.0, None
    # Fortran order, as a LAPACK triangular solve returns R^-1: np.linalg.norm(r_inv,
    # axis=1) sums each row in the order of the layout, and a C-order inverse moves
    # some separations by an ulp
    r_inv = np.asfortranarray(np.linalg.inv(r))
    # a row of R^-1 below about 1e-162 has a norm that squares to 0: its distance
    # is then past sqrt(DBL_MAX), and so is sigma_max, which analyze and
    # extract refuse; the separation reads inf without a warning.  A row above
    # about 1e154 squares to inf, and the separation (below 1e-154) reads 0.0
    with np.errstate(divide="ignore", over="ignore"):
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
    # bools and integral floats sort like a permutation, but numpy reads
    # bools as a mask and refuses floats as indices
    integers = all(isinstance(i, (int, np.integer)) and not isinstance(i, bool) for i in order)
    if not integers or sorted(order) != list(range(m)):
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


def equivalence_constant(system_a: VectorSystem, system_b: VectorSystem) -> float:
    """Smallest K with K^-1 ||sum a_i f_i|| <= ||sum a_i g_i|| <= K ||sum a_i f_i||.

    Read off the columns, never a Gram matrix.  The two coefficient kernels
    agree exactly when F, G and the stack [F / sigma_max(F); G / sigma_max(G)]
    have the same _rank r; otherwise K is infinite, and two identically zero
    systems (r = 0) have K = 1.  On the common range, with F = U S V^H from
    one SVD, K = max(sigma_max(M), 1 / sigma_min(M)) for M = G V_r S_r^-1.
    """
    if system_a.count != system_b.count:
        raise CountMismatch(
            f"counts differ: {system_a.count} vs {system_b.count}"
        )
    cols_a = _arithmetic(system_a.columns)
    cols_b = _arithmetic(system_b.columns)
    # F's SVD from the SVD of its R, as _factor takes it: F = Q R = (Q U) S V^H
    n, m = cols_a.shape
    _, svals_a, vh_a = np.linalg.svd(
        cols_a if m > n else np.linalg.qr(cols_a, mode="r"), full_matrices=False
    )
    svals_b = _factor(cols_b)[0]
    rank = _rank(svals_a)
    if _rank(svals_b) != rank:
        return math.inf
    if rank == 0:
        return 1.0  # both systems are identically zero
    stacked = np.vstack([cols_a / svals_a[0], cols_b / svals_b[0]])
    if _rank(_factor(stacked)[0]) != rank:
        return math.inf
    # M = G V_r S_r^-1, with G V_r taken before the division, has every entry below
    # K in magnitude: an entry past the double range means K is too, and
    # sigma_min(M) = 0 reads inf
    with np.errstate(over="ignore", divide="ignore"):
        coupling = (cols_b @ vh_a[:rank].conj().T) / svals_a[:rank]
        if not np.isfinite(coupling).all():
            return math.inf
        svals_m = _factor(coupling)[0]
        return float(max(svals_m[0], 1.0 / svals_m[rank - 1]))


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
