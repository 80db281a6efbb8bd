"""Vector systems and frame-operator computations.

A system is a finite family of vectors in an n-dimensional complex Hilbert
space, stored as the columns of its synthesis matrix.  The inner product is
linear in the first argument: <f, g> = sum_k f[k] * conj(g[k]).

All operations here are pure functions of immutable inputs; column arrays are
marked read-only, so values can be shared across threads freely.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DimensionMismatch, NotSpanning, ZeroNorm

DEFAULT_TOLERANCE = 1e-10


def _as_column_matrix(values) -> np.ndarray:
    cols = np.array(values, dtype=np.complex128, order="C")
    if cols.ndim != 2:
        raise BadParameter(f"columns must be a 2-d array, got ndim={cols.ndim}")
    return cols


def gram(columns: np.ndarray) -> np.ndarray:
    """Gram matrix columns^H columns, symmetrized so it is exactly Hermitian."""
    g = columns.conj().T @ columns
    return 0.5 * (g + g.conj().T)


@dataclass(frozen=True, eq=False, repr=False)
class VectorSystem:
    """An indexed family of vectors f_1..f_m in C^n, one per matrix column."""

    columns: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        cols = _as_column_matrix(self.columns)
        n, m = cols.shape
        if n < 1 or m < 1:
            raise BadParameter(f"system needs dim >= 1 and count >= 1, got {n}x{m}")
        if not np.all(np.isfinite(cols.view(np.float64))):
            raise BadParameter("system entries must be finite")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        if self.labels is not None:
            labels = tuple(str(x) for x in self.labels)
            if len(labels) != m:
                raise BadParameter(f"expected {m} labels, got {len(labels)}")
            if len(set(labels)) != m:
                raise BadParameter("labels must be pairwise distinct")
            object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def norms(self) -> np.ndarray:
        """Column norms ||f_i||, shape (count,)."""
        return np.linalg.norm(self.columns, axis=0)

    def gram(self) -> np.ndarray:
        """Hermitian Gram matrix of pairwise inner products, shape (count, count)."""
        return gram(self.columns)

    def subsystem(self, indices) -> "VectorSystem":
        """New system keeping the given column indices, in the given order."""
        idx = list(indices)
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in idx)
        return VectorSystem(self.columns[:, idx], labels)

    def __repr__(self):
        return f"VectorSystem(dim={self.dim}, count={self.count})"


@dataclass(frozen=True)
class FrameReport:
    """Frame bounds, norm range and the tightness/spanning decisions."""

    lower_bound: float
    upper_bound: float
    min_norm: float
    max_norm: float
    is_tight: bool
    is_spanning: bool
    tolerance: float


@dataclass(frozen=True, eq=False)
class OperatorPower:
    """Spectral data of the frame operator, prepared for taking real powers."""

    exponent: float
    eigenvalues: np.ndarray  # nonincreasing, all >= 0
    eigenvectors: np.ndarray  # unitary, column k pairs with eigenvalues[k]

    @classmethod
    def compute(cls, system: VectorSystem, exponent: float) -> "OperatorPower":
        s = frame_operator(system)
        vals, vecs = np.linalg.eigh(s)
        vals = np.maximum(vals[::-1], 0.0)
        vecs = vecs[:, ::-1]
        return cls(float(exponent), vals, vecs)

    def matrix(self, tolerance: float = DEFAULT_TOLERANCE) -> np.ndarray:
        """Materialize S^exponent, treating eigenvalues under tolerance*max as zero."""
        cutoff = tolerance * (self.eigenvalues[0] if self.eigenvalues.size else 0.0)
        vals = np.where(self.eigenvalues > cutoff, self.eigenvalues, 0.0)
        if self.exponent < 0 and np.any(vals == 0.0):
            raise NotSpanning("negative power of a singular frame operator")
        with np.errstate(divide="ignore"):
            powered = np.where(vals > 0.0, vals ** self.exponent, 0.0)
        out = (self.eigenvectors * powered) @ self.eigenvectors.conj().T
        return 0.5 * (out + out.conj().T)


def synthesis_apply(system: VectorSystem, coeffs) -> np.ndarray:
    """Return sum_i coeffs[i] * f_i."""
    c = np.asarray(coeffs, dtype=np.complex128).reshape(-1)
    if c.shape[0] != system.count:
        raise DimensionMismatch(
            f"expected {system.count} coefficients, got {c.shape[0]}"
        )
    return system.columns @ c


def analysis_apply(system: VectorSystem, f) -> np.ndarray:
    """Return the inner products (<f, f_i>)_i."""
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != system.dim:
        raise DimensionMismatch(f"expected a dim-{system.dim} vector, got {vec.shape[0]}")
    return system.columns.conj().T @ vec


def frame_operator(system: VectorSystem) -> np.ndarray:
    """The positive operator S = sum_i f_i f_i^*, as an n x n Hermitian matrix."""
    s = system.columns @ system.columns.conj().T
    return 0.5 * (s + s.conj().T)


def frame_bounds(system: VectorSystem) -> tuple[float, float]:
    """Extreme eigenvalues (A, B) of the frame operator, clipped at zero."""
    vals = np.linalg.eigvalsh(frame_operator(system))
    return float(max(vals[0], 0.0)), float(max(vals[-1], 0.0))


def frame_report(system: VectorSystem, tolerance: float = DEFAULT_TOLERANCE) -> FrameReport:
    """Frame bounds, norm range, and tightness/spanning flags.

    The spanning decision is relative: the system spans iff A > tolerance * B.
    Tightness uses the relative gap (B - A) <= tolerance * B.
    """
    if tolerance <= 0:
        raise BadParameter("tolerance must be positive")
    a, b = frame_bounds(system)
    norms = system.norms()
    return FrameReport(
        lower_bound=a,
        upper_bound=b,
        min_norm=float(norms.min()),
        max_norm=float(norms.max()),
        is_tight=bool((b - a) <= tolerance * b),
        is_spanning=bool(a > tolerance * b),
        tolerance=float(tolerance),
    )


def power_transform(
    system: VectorSystem, exponent: float, tolerance: float = DEFAULT_TOLERANCE
) -> VectorSystem:
    """Map each vector f_i to S^((exponent-1)/2) f_i.

    The output is again a frame whose frame operator is S^exponent.  Exponent 1
    returns the input unchanged; exponent 0 produces the canonical tight system
    whose frame operator is the identity.  Exponents below 1 need an invertible
    frame operator and raise NotSpanning otherwise.
    """
    if exponent == 1:
        return system
    transform = OperatorPower.compute(system, (exponent - 1) / 2.0).matrix(tolerance)
    return VectorSystem(transform @ system.columns, system.labels)


@dataclass(frozen=True, eq=False)
class DualReconstruction:
    """Canonical dual coefficients, the rebuilt vector, and the energy identity scalar."""

    coefficients: np.ndarray
    reconstruction: np.ndarray
    parseval_scalar: float


def canonical_dual_reconstruct(
    system: VectorSystem, f, tolerance: float = DEFAULT_TOLERANCE
) -> DualReconstruction:
    """Expand f through the canonical dual: c_i = <S^-1 f, f_i>.

    Returns the coefficients, the reconstruction sum_i c_i f_i (equal to f up
    to roundoff), and <f, S^-1 f>, which equals sum |c_i|^2.
    """
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != system.dim:
        raise DimensionMismatch(f"expected a dim-{system.dim} vector, got {vec.shape[0]}")
    s_inv = OperatorPower.compute(system, -1.0).matrix(tolerance)
    dual_image = s_inv @ vec
    coeffs = analysis_apply(system, dual_image)
    recon = synthesis_apply(system, coeffs)
    scalar = float(np.real(np.vdot(dual_image, vec)))
    return DualReconstruction(coeffs, recon, scalar)


@dataclass(frozen=True)
class CountingSlacks:
    """Slack (right side minus left side) of the two counting inequalities.

    dimension_slack:   (max_norm^2 / A) * count - dim   >= 0
    cardinality_slack: (B / min_norm^2) * dim - count   >= 0
    """

    dimension_slack: float
    cardinality_slack: float


def check_counting_lemmas(
    system: VectorSystem, tolerance: float = DEFAULT_TOLERANCE
) -> CountingSlacks:
    """Evaluate both counting inequalities relating dim, count, bounds and norms."""
    report = frame_report(system, tolerance)
    if not report.is_spanning:
        raise NotSpanning("dimension inequality needs a spanning system")
    if report.min_norm <= 0.0:
        raise ZeroNorm("cardinality inequality needs all norms positive")
    dim_slack = (report.max_norm**2 / report.lower_bound) * system.count - system.dim
    card_slack = (report.upper_bound / report.min_norm**2) * system.dim - system.count
    return CountingSlacks(float(dim_slack), float(card_slack))


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """A uniformly random unit vector in C^dim."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    norm = np.linalg.norm(v)
    if norm == 0.0:  # pragma: no cover - probability zero
        return random_unit_vector(dim, rng)
    return v / norm


def coverage_target(total: int, eps: float) -> int:
    """Smallest integer not below (1 - eps) * total, robust to float dust."""
    if not 0.0 < eps < 1.0:
        raise BadParameter("eps must lie strictly between 0 and 1")
    return total - math.floor(eps * total + 1e-9)
