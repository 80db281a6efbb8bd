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


def _is_real(array: np.ndarray) -> bool:
    """Whether no entry of array has a nonzero imaginary part (-0.0 counts as zero)."""
    return not array.imag.any()


def _arithmetic(columns: np.ndarray) -> np.ndarray:
    """columns as contiguous float64 when _is_real(columns).

    numpy picks the LAPACK routine by dtype, so a real system is factored in
    real arithmetic (about a quarter of the complex flops); columns with any
    nonzero imaginary part are returned unchanged.
    """
    if not _is_real(columns):
        return columns
    return np.ascontiguousarray(columns.real, dtype=np.float64)


def gram(columns: np.ndarray) -> np.ndarray:
    """Gram matrix columns^H columns, symmetrized so it is exactly Hermitian.

    An entry past the largest double comes out inf or nan without a numpy
    warning: the callers that factor a Gram or a frame operator refuse it with
    one BadParameter diagnostic (OperatorPower._of_operator, select_exhaustive).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = columns.conj().T @ columns
        return 0.5 * (g + g.conj().T)


@dataclass(frozen=True, eq=False, repr=False)
class VectorSystem:
    """An indexed family of vectors f_1..f_m in C^n, one per matrix column.

    Every system owns one frozen C-order complex128 copy of its columns.  The
    constructor always copies, so a system never shares memory with the
    caller's array and the caller's array stays writeable.  Builders,
    ``subsystem`` and the loader, which allocate a fresh array themselves,
    hand it over through the private ``_own``, which runs the same checks and
    freezes it without a copy.
    """

    columns: np.ndarray
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        self._adopt(np.array(self.columns, dtype=np.complex128, order="C"), self.labels)

    @classmethod
    def _own(cls, cols: np.ndarray, labels=None) -> "VectorSystem":
        """The system of a fresh C-order complex128 array that nothing else will write.

        The array is checked and frozen as the constructor's copy is, and
        becomes the system's columns without being copied.
        """
        system = object.__new__(cls)
        system._adopt(cols, labels)
        return system

    def _adopt(self, cols: np.ndarray, labels) -> None:
        """Check cols and labels, freeze cols and store both on self."""
        if cols.ndim != 2:
            raise BadParameter(f"columns must be a 2-d array, got ndim={cols.ndim}")
        n, m = cols.shape
        if n < 1 or m < 1:
            raise BadParameter(f"system needs dim >= 1 and count >= 1, got {n}x{m}")
        if not np.all(np.isfinite(cols.view(np.float64))):
            raise BadParameter("system entries must be finite")
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != m:
                raise BadParameter(f"expected {m} labels, got {len(labels)}")
            if len(set(labels)) != m:
                raise BadParameter("labels must be pairwise distinct")
        cols.setflags(write=False)
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def norms(self) -> np.ndarray:
        """Column norms ||f_i||, shape (count,).

        The bits of np.linalg.norm(columns, axis=0), formed in a real buffer
        half the size of the columns instead of two complex copies of them
        (_column_norms).
        """
        return _column_norms(self.columns)

    def gram(self) -> np.ndarray:
        """Hermitian Gram matrix of pairwise inner products, shape (count, count)."""
        return gram(self.columns)

    def subsystem(self, indices) -> "VectorSystem":
        """New system keeping the given column indices, in the given order."""
        idx = list(indices)
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in idx)
        # numpy's indexing rules pick the columns; np.take copies them in C order
        positions = np.arange(self.count)[idx]
        return VectorSystem._own(np.take(self.columns, positions, axis=1), labels)

    def __repr__(self):
        return f"VectorSystem(dim={self.dim}, count={self.count})"


# rows of a system whose squared moduli _column_norms forms at once
_NORM_ROWS = 64


def _column_norms(columns: np.ndarray) -> np.ndarray:
    """The norms of the columns, bit for bit those of np.linalg.norm(columns, axis=0).

    np.linalg.norm sums (x.conj() * x).real down the columns; that takes two
    complex temporaries the size of columns.  Here the same squared moduli
    fill one real buffer (half that size) in blocks of _NORM_ROWS rows, and
    the same np.add.reduce sums it.  Blocks of columns, or re*re + im*im,
    give other bits.
    """
    squares = np.empty(columns.shape)
    for r in range(0, columns.shape[0], _NORM_ROWS):
        rows = columns[r:r + _NORM_ROWS]
        squares[r:r + _NORM_ROWS] = (rows.conj() * rows).real
    return np.sqrt(np.add.reduce(squares, axis=0))


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
    """Spectral data of the frame operator, prepared for taking real powers.

    Its eigh is the one factorization of a frame operator in framekit: the
    frame bounds, S^exponent and gallery.find_flat_vector's bottom eigenvector
    all read it.  For a system with no nonzero imaginary part S is float64,
    and so are the eigenvectors and every matrix S^exponent built from them.
    """

    exponent: float
    eigenvalues: np.ndarray  # nonincreasing, all >= 0
    eigenvectors: np.ndarray  # unitary, column k pairs with eigenvalues[k]

    @classmethod
    def compute(cls, system: VectorSystem, exponent: float) -> "OperatorPower":
        return cls._of_operator(frame_operator(system), exponent)

    @classmethod
    def _of_operator(cls, s: np.ndarray, exponent: float) -> "OperatorPower":
        """compute, for the frame operator s already formed.

        An s with an entry past the largest double (a column entry above about
        1.3e154 squares to inf) has no eigenvalues LAPACK can compute; it is
        refused with BadParameter.
        """
        if not np.all(np.isfinite(s)):
            raise BadParameter("frame operator S = F F^* has an entry that is not a finite double")
        vals, vecs = np.linalg.eigh(s)
        vals = np.maximum(vals[::-1], 0.0)
        vecs = vecs[:, ::-1]
        return cls(float(exponent), vals, vecs)

    @property
    def bounds(self) -> tuple[float, float]:
        """The frame bounds (A, B): the extreme eigenvalues of S, clipped at zero."""
        return float(self.eigenvalues[-1]), float(self.eigenvalues[0])

    def matrix(self) -> np.ndarray:
        """Materialize S^exponent, treating eigenvalues under DEFAULT_TOLERANCE*max as zero."""
        cutoff = DEFAULT_TOLERANCE * (self.eigenvalues[0] if self.eigenvalues.size else 0.0)
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
    # conjugating the product, not the columns, makes no copy of the columns
    return (vec.conj() @ system.columns).conj()


def frame_operator(system: VectorSystem) -> np.ndarray:
    """The positive operator S = sum_i f_i f_i^*, as an n x n Hermitian matrix.

    S is float64 (real symmetric) when no column entry has a nonzero imaginary
    part, and complex128 otherwise.
    """
    return gram(_arithmetic(system.columns).conj().T)


def frame_bounds(system: VectorSystem) -> tuple[float, float]:
    """Extreme eigenvalues (A, B) of the frame operator, clipped at zero."""
    return OperatorPower.compute(system, 1.0).bounds


def frame_report(system: VectorSystem, tolerance: float = DEFAULT_TOLERANCE) -> FrameReport:
    """Frame bounds, norm range, and tightness/spanning flags.

    The spanning decision is relative: the system spans iff A > tolerance * B.
    Tightness uses the relative gap (B - A) <= tolerance * B.
    """
    return _frame_report(system, frame_bounds(system), tolerance)


def _frame_report(
    system: VectorSystem, bounds: tuple[float, float], tolerance: float
) -> FrameReport:
    """frame_report, for the frame bounds (A, B) of system, both at least zero.

    Each caller passes the bounds of the factorization it already holds: the
    bounds of an OperatorPower of S, or the squared extreme singular values of
    the columns, which `analyze` reads off basis_metrics without forming S.
    """
    if not tolerance > 0:  # also rejects NaN
        raise BadParameter("tolerance must be positive")
    a, b = bounds
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


def power_transform(system: VectorSystem, exponent: float) -> VectorSystem:
    """Map each vector f_i to S^((exponent-1)/2) f_i.

    The output is again a frame whose frame operator is S^exponent.  Exponent 1
    returns the input unchanged; exponent 0 produces the canonical tight system
    whose frame operator is the identity.  Exponents below 1 need an invertible
    frame operator and raise NotSpanning otherwise.
    """
    if exponent == 1:
        return system
    return _apply_power(system, OperatorPower.compute(system, (exponent - 1) / 2.0))


def _apply_power(system: VectorSystem, power: OperatorPower) -> VectorSystem:
    """Map each vector f_i to S^power.exponent f_i, with S's spectral data in power."""
    return VectorSystem(power.matrix() @ _arithmetic(system.columns), system.labels)


@dataclass(frozen=True, eq=False)
class DualReconstruction:
    """Canonical dual coefficients, the rebuilt vector, and the energy identity scalar."""

    coefficients: np.ndarray
    reconstruction: np.ndarray
    parseval_scalar: float


def canonical_dual_reconstruct(system: VectorSystem, f) -> DualReconstruction:
    """Expand f through the canonical dual: c_i = <S^-1 f, f_i>.

    Returns the coefficients, the reconstruction sum_i c_i f_i (equal to f up
    to roundoff), and <f, S^-1 f>, which equals sum |c_i|^2.  Each call factors
    S; ``framekit verify-lemmas`` factors S once per run and applies the same
    S^-1 to all of its probes.
    """
    vec = np.asarray(f, dtype=np.complex128).reshape(-1)
    if vec.shape[0] != system.dim:
        raise DimensionMismatch(f"expected a dim-{system.dim} vector, got {vec.shape[0]}")
    return _dual_reconstruct(system, OperatorPower.compute(system, -1.0).matrix(), vec)


def _dual_reconstruct(
    system: VectorSystem, s_inv: np.ndarray, vec: np.ndarray
) -> DualReconstruction:
    """canonical_dual_reconstruct for a precomputed S^-1 and a complex dim-vector."""
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


def check_counting_lemmas(system: VectorSystem) -> CountingSlacks:
    """Evaluate both counting inequalities relating dim, count, bounds and norms."""
    return _counting_slacks(system, frame_bounds(system))


def _counting_slacks(system: VectorSystem, bounds: tuple[float, float]) -> CountingSlacks:
    """check_counting_lemmas, for the frame bounds (A, B) of system already computed."""
    report = _frame_report(system, bounds, DEFAULT_TOLERANCE)
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
    """Smallest integer not below (1 - eps) * total, robust to float dust.

    At least 1: (1 - eps) * total is positive, even where the dust term lifts
    eps * total, for eps within 1e-9 / total of 1, to total.
    """
    if not 0.0 < eps < 1.0:
        raise BadParameter("eps must lie strictly between 0 and 1")
    return max(1, total - math.floor(eps * total + 1e-9))
