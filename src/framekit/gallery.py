"""Generators for every explicit construction used by the experiments.

Kinds (also the JSON vocabulary of the CLI ``gen`` command):

* ``orthonormal``          standard basis of C^n
* ``lemma51``              n+1 mean-centered vectors forming a tight frame with A = B = 1
* ``duplicated``           each basis vector twice, in C^n or embedded in C^{2n}
* ``perturbedPairs``       n nearly parallel pairs (e, e + u/n) in C^{2n}
* ``weightedExponentials`` complex exponentials against the weight |x|^(2*sign*a),
                           realized in coordinates through their quadrature Gram matrix
* ``lemma52Block``         block copies of a conditional basis admitting a flat subspace
* ``prop53Truncation``     layered blocks mixing flat tight frames into conditional bases
* ``randomFrame``          seeded random spanning system with prescribed condition number

Function-space families are represented by their Gram matrices and realized by
Cholesky factorization, which is faithful up to isometry; every downstream
constant depends only on the Gram matrix.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import VectorSystem, frame_operator
from .errors import BadParameter, EmptyInput, NotFlat, QuadratureFailure
from .metrics import schauder_basis_constant
from .selection import smallest_singular_value

FLAT_SIZE_CAP = 512


# ---------------------------------------------------------------------------
# elementary constructions


def orthonormal(n: int) -> VectorSystem:
    """The standard orthonormal basis of C^n."""
    _require_positive(n, "n")
    return VectorSystem(np.eye(n, dtype=np.complex128), tuple(f"e{i + 1}" for i in range(n)))


def lemma51(n: int) -> VectorSystem:
    """n+1 vectors in C^n: f_i = e_i - mean, plus the normalized all-ones vector.

    A tight frame with bounds A = B = 1 whose n-element subsets are badly
    conditioned as bases (basis constant growing like sqrt(n)/4).
    """
    _require_positive(n, "n")
    cols = np.zeros((n, n + 1), dtype=np.complex128)
    cols[:, :n] = np.eye(n) - np.full((n, n), 1.0 / n)
    cols[:, n] = 1.0 / math.sqrt(n)
    return VectorSystem(cols, tuple(f"f{i + 1}" for i in range(n + 1)))


def duplicated(n: int, double_ambient: bool = False) -> VectorSystem:
    """Each basis vector of C^n repeated twice, interleaved.

    With ``double_ambient`` the 2n vectors sit inside C^{2n} and span only
    half of it; otherwise they sit in C^n and form a tight frame with bounds 2.
    """
    _require_positive(n, "n")
    dim = 2 * n if double_ambient else n
    cols = np.zeros((dim, 2 * n), dtype=np.complex128)
    labels = []
    for i in range(n):
        cols[i, 2 * i] = 1.0
        cols[i, 2 * i + 1] = 1.0
        labels += [f"e{i + 1}a", f"e{i + 1}b"]
    return VectorSystem(cols, tuple(labels))


def perturbed_pairs(n: int) -> VectorSystem:
    """2n vectors in C^{2n}: pairs (e_{2i-1}, e_{2i-1} + e_{2i}/n).

    Linearly independent and spanning, yet any subset keeping both members of
    a pair has Riesz constant of the order of sqrt(2) * n.
    """
    _require_positive(n, "n")
    cols = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    labels = []
    for i in range(n):
        cols[2 * i, 2 * i] = 1.0
        cols[2 * i, 2 * i + 1] = 1.0
        cols[2 * i + 1, 2 * i + 1] = 1.0 / n
        labels += [f"u{i + 1}", f"v{i + 1}"]
    return VectorSystem(cols, tuple(labels))


def random_frame(n: int, m: int, seed: int, cond: float = 100.0) -> VectorSystem:
    """Seeded random spanning system whose frame operator has the given condition number."""
    _require_positive(n, "n")
    _require_positive(m, "m")
    if m < n:
        raise BadParameter("a spanning system needs m >= n")
    if cond < 1.0:
        raise BadParameter("condition number must be at least 1")
    if seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {seed!r}")
    rng = np.random.default_rng(seed)
    left = _random_isometry(n, n, rng)
    right = _random_isometry(m, n, rng)
    svals = np.logspace(0.0, -0.5 * math.log10(cond), n) if cond > 1 else np.ones(n)
    cols = (left * svals) @ right.conj().T
    return VectorSystem(cols)


def _random_isometry(rows: int, cols_: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((rows, cols_)) + 1j * rng.standard_normal((rows, cols_))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases = phases / np.abs(phases)
    return q * phases.conj()


# ---------------------------------------------------------------------------
# weighted exponential families via singular-weight quadrature


def _frequency_ladder(max_frequency: int, sign: int) -> np.ndarray:
    """Frequencies 0, -1, +1, -2, +2, ... (negative first for sign -1, flipped for +1)."""
    freqs = [0]
    for k in range(1, max_frequency + 1):
        freqs += [-sign * k, sign * k]
    return np.asarray(freqs, dtype=np.int64)


def _panel_quadrature(weight_exponent: float, max_delta: int, depth: int, nodes: int, osc: float):
    """Nodes/weights for integral_0^pi x^w f(x) dx minus the innermost [0, h] core.

    Dyadic panels refine toward the singularity at zero; each panel is split
    so the fastest oscillation advances at most ``osc`` radians per piece.
    """
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    xs: list[np.ndarray] = []
    ws: list[np.ndarray] = []
    hi = math.pi
    for _ in range(depth):
        lo = hi / 2.0
        pieces = max(1, math.ceil((hi - lo) * max(max_delta, 1) / osc))
        edges = np.linspace(lo, hi, pieces + 1)
        for left, right in zip(edges[:-1], edges[1:]):
            half = (right - left) / 2.0
            xs.append((left + right) / 2.0 + half * base_x)
            ws.append(half * base_w)
        hi = lo
    x = np.concatenate(xs)
    w = np.concatenate(ws) * x**weight_exponent
    return x, w, hi


def _core_integrals(weight_exponent: float, h: float, deltas: np.ndarray) -> np.ndarray:
    """integral_0^h x^w cos(delta x) dx by power series (exact for tiny h)."""
    out = np.zeros(deltas.shape[0])
    power = h ** (weight_exponent + 1.0)
    for i, delta in enumerate(deltas):
        coeff = 1.0  # accumulates (-1)^j (delta h)^(2j) / (2j)!
        total = 0.0
        for j in range(60):
            total += coeff * power / (weight_exponent + 2 * j + 1.0)
            coeff *= -(delta * h) * (delta * h) / ((2 * j + 1.0) * (2 * j + 2.0))
            if abs(coeff * power) < 1e-30:
                break
        out[i] = total
    return out


def weight_fourier_integrals(
    weight_exponent: float,
    max_delta: int,
    depth: int = 40,
    nodes: int = 16,
    osc: float = 6.0,
) -> np.ndarray:
    """I(delta) = integral_{-pi}^{pi} |x|^w e^(i delta x) dx for delta = 0..max_delta.

    The weight is even, so the integrals are real and I(-delta) = I(delta).
    """
    if weight_exponent <= -1.0:
        raise BadParameter("weight exponent must exceed -1 for integrability")
    deltas = np.arange(max_delta + 1)
    x, w, h = _panel_quadrature(weight_exponent, max_delta, depth, nodes, osc)
    oscillatory = np.cos(np.outer(deltas, x)) @ w
    return 2.0 * (oscillatory + _core_integrals(weight_exponent, h, deltas))


def _normalize_sign(sign) -> int:
    if sign in (1, "+", "+1"):
        return 1
    if sign in (-1, "-", "-1"):
        return -1
    raise BadParameter(f"sign must be one of +1/-1/'+'/'-', got {sign!r}")


def weighted_exponential_gram(a: float, max_frequency: int, sign) -> np.ndarray:
    """Gram matrix of the first 2N+1 exponentials against the weight |x|^(2*sign*a).

    Entry (j, k) is the weighted integral of e^(i (n_j - n_k) x) over [-pi, pi].
    The result is real symmetric positive semidefinite; its diagonal equals the
    closed form 2 pi^(1+w) / (1+w) with w = 2*sign*a.  Raises QuadratureFailure
    when the a-posteriori error estimate exceeds 1e-8.
    """
    signum = _normalize_sign(sign)
    if not 0.0 <= a < 0.5:
        raise BadParameter("a must lie in [0, 1/2)")
    if max_frequency < 0:
        raise BadParameter("max_frequency must be nonnegative")
    w_exp = 2.0 * signum * a
    max_delta = 2 * max_frequency
    coarse = weight_fourier_integrals(w_exp, max_delta)
    fine = weight_fourier_integrals(w_exp, max_delta, depth=46, nodes=24, osc=4.0)
    drift = float(np.max(np.abs(coarse - fine)))
    if drift > 1e-8:
        raise QuadratureFailure(f"quadrature disagreement {drift:.3e} exceeds 1e-8")
    closed_diag = 2.0 * math.pi ** (1.0 + w_exp) / (1.0 + w_exp)
    if abs(fine[0] - closed_diag) > 1e-9 * max(1.0, closed_diag):
        raise QuadratureFailure(
            f"diagonal {fine[0]!r} misses closed form {closed_diag!r}"
        )
    freqs = _frequency_ladder(max_frequency, signum)
    gram = fine[np.abs(np.subtract.outer(freqs, freqs))]
    min_eig = float(np.linalg.eigvalsh(gram)[0])
    if min_eig < -1e-9 * closed_diag:
        raise QuadratureFailure(f"Gram matrix not PSD: min eigenvalue {min_eig:.3e}")
    return gram


def weighted_exponentials(
    a: float, max_frequency: int, sign, normalized: bool = True
) -> VectorSystem:
    """Coordinate realization (via Cholesky) of the weighted exponential family.

    With ``normalized`` (default) all vectors have unit norm; the Gram diagonal
    is constant, so this is a single uniform rescaling.
    """
    signum = _normalize_sign(sign)
    gram = weighted_exponential_gram(a, max_frequency, signum)
    if normalized:
        gram = gram / gram[0, 0]
    chol = np.linalg.cholesky(gram)
    freqs = _frequency_ladder(max_frequency, signum)
    labels = tuple(f"k{int(f):+d}" for f in freqs)
    return VectorSystem(chol.T.astype(np.complex128), labels)


# ---------------------------------------------------------------------------
# flat vectors, block assembly, and the layered constructions


def find_flat_vector(system: VectorSystem, budget: float) -> np.ndarray:
    """Unit vector whose analysis mass sum_i |<h, f_i>|^2 is at most the budget.

    The minimizer over unit vectors is the bottom eigenvector of the frame
    operator; raises NotFlat (carrying the achieved mass) when even that
    exceeds the budget, in which case callers enlarge the system and retry.
    """
    if budget <= 0.0:
        raise BadParameter("budget must be positive")
    vals, vecs = np.linalg.eigh(frame_operator(system))
    achieved = float(max(vals[0], 0.0))
    if achieved > budget:
        raise NotFlat(
            f"best analysis mass {achieved:.6g} exceeds budget {budget:.6g}", achieved
        )
    return vecs[:, 0]


def assemble_block_system(blocks) -> VectorSystem:
    """Direct-sum embedding: block j's vectors zero-padded into slot j.

    The frame operator is block-diagonal, so the assembled frame bounds are
    the min/max of the block bounds.
    """
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("need at least one block")
    dim = sum(b.dim for b in blocks)
    count = sum(b.count for b in blocks)
    cols = np.zeros((dim, count), dtype=np.complex128)
    labeled = all(b.labels is not None for b in blocks)
    labels: list[str] = []
    row = col = 0
    for j, block in enumerate(blocks):
        cols[row : row + block.dim, col : col + block.count] = block.columns
        if labeled:
            labels += [f"b{j}:{lab}" for lab in block.labels]
        row += block.dim
        col += block.count
    return VectorSystem(cols, tuple(labels) if labeled else None)


@dataclass(frozen=True, eq=False)
class FlatBlock:
    """A conditional-basis block together with one certified flat direction."""

    system: VectorSystem
    flat_vector: np.ndarray
    flat_mass: float
    max_frequency: int


def _flat_conditional_basis(budget: float, a: float, start_frequency: int) -> FlatBlock:
    """Grow the Hilbertian-side weighted exponential family until it admits a flat vector."""
    max_frequency = start_frequency
    while True:
        system = weighted_exponentials(a, max_frequency, +1, normalized=True)
        try:
            flat = find_flat_vector(system, budget)
        except NotFlat:
            if 2 * max_frequency + 1 > FLAT_SIZE_CAP:
                raise
            max_frequency *= 2
            continue
        mass = float(
            np.real(np.vdot(flat, frame_operator(system) @ flat))
        )
        return FlatBlock(system, flat, mass, max_frequency)


def lemma52_block(
    k: int, eps: float, a: float = 0.45, start_frequency: int = 8
) -> VectorSystem:
    """k diagonal copies of a conditional basis with an (almost) invisible k-dim subspace.

    Each copy carries a unit vector of analysis mass at most eps/k, so the
    k-dimensional span of the per-copy flat vectors has total analysis mass at
    most eps against the whole basis, while the basis constant and Hilbertian
    constant match those of a single copy.
    """
    system, _, _ = build_lemma52_block(k, eps, a, start_frequency)
    return system


def build_lemma52_block(
    k: int, eps: float, a: float = 0.45, start_frequency: int = 8
) -> tuple[VectorSystem, np.ndarray, int]:
    """As lemma52_block, also returning the flat-subspace basis (dim x k) and copy size."""
    _require_positive(k, "k")
    if eps <= 0:
        raise BadParameter("eps must be positive")
    block = _flat_conditional_basis(eps / k, a, start_frequency)
    q = block.system.count
    system = assemble_block_system([block.system] * k)
    flat_basis = np.zeros((system.dim, k), dtype=np.complex128)
    for j in range(k):
        flat_basis[j * q : (j + 1) * q, j] = block.flat_vector
    return system, flat_basis, q


@dataclass(frozen=True, eq=False)
class LayeredBlock:
    """Bookkeeping for one layer of the truncated construction."""

    m: int
    eps: float
    copy_size: int
    basis_slice: slice  # conditional-basis columns, global indices
    complement_slice: slice  # orthonormal complement columns
    flat_frame_slice: slice  # the m+1 tight-frame columns inside the flat subspace
    flat_subspace: np.ndarray  # assembled-dim x m orthonormal basis of the flat subspace
    flat_mass: float


def prop53_truncation(
    depth: int,
    epsilons,
    a: float = 0.45,
    start_frequency: int = 8,
    normalized: bool = True,
) -> VectorSystem:
    """Finite truncation of the layered frame mixing flat tight frames into bases."""
    system, _ = build_prop53_truncation(depth, epsilons, a, start_frequency, normalized)
    return system


def build_prop53_truncation(
    depth: int,
    epsilons,
    a: float = 0.45,
    start_frequency: int = 8,
    normalized: bool = True,
) -> tuple[VectorSystem, tuple[LayeredBlock, ...]]:
    """Assemble the truncation and return per-layer bookkeeping for audits.

    Layer j (j = 0..depth-1) uses m = j + 2 flat directions: the m = 1 layer of
    the idealized construction degenerates to a zero vector and is skipped.
    Each layer holds the conditional-basis copies, an orthonormal basis of the
    complement of the flat subspace, and the m+1 mean-centered tight-frame
    vectors embedded into the flat subspace.  With ``normalized`` every column
    is rescaled to unit norm at the end.
    """
    _require_positive(depth, "depth")
    eps_list = [float(e) for e in epsilons]
    if len(eps_list) != depth:
        raise BadParameter(f"expected {depth} epsilon values, got {len(eps_list)}")
    if any(e <= 0 for e in eps_list):
        raise BadParameter("epsilon values must be positive")
    block_systems: list[VectorSystem] = []
    layer_data = []
    for j, eps in enumerate(eps_list):
        m = j + 2
        flat = _flat_conditional_basis(eps / m, a, start_frequency)
        q = flat.system.count
        n_m = m * q
        cols = np.zeros((n_m, 2 * n_m + 1), dtype=np.complex128)
        labels = []
        # conditional basis: m diagonal copies
        for copy in range(m):
            cols[copy * q : (copy + 1) * q, copy * q : (copy + 1) * q] = (
                flat.system.columns
            )
            labels += [f"g{copy * q + i}" for i in range(q)]
        # orthonormal flat-subspace basis: the per-copy flat vectors
        flat_basis = np.zeros((n_m, m), dtype=np.complex128)
        for copy in range(m):
            flat_basis[copy * q : (copy + 1) * q, copy] = flat.flat_vector
        # complement: complete the flat vector to an ONB of each copy
        completion = _complete_to_onb(flat.flat_vector)
        e_start = n_m
        idx = 0
        for copy in range(m):
            cols[copy * q : (copy + 1) * q, e_start + idx : e_start + idx + q - 1] = (
                completion
            )
            labels += [f"e{idx + i}" for i in range(q - 1)]
            idx += q - 1
        # the m+1 tight-frame vectors, expressed in the flat-subspace coordinates
        f_start = e_start + m * (q - 1)
        cols[:, f_start : f_start + m + 1] = flat_basis @ lemma51(m).columns
        labels += [f"f{i}" for i in range(m + 1)]
        block_systems.append(VectorSystem(cols, tuple(labels)))
        layer_data.append((m, eps, q, flat_basis, flat.flat_mass, n_m))
    assembled = assemble_block_system(block_systems)
    if normalized:
        norms = assembled.norms()
        assembled = VectorSystem(assembled.columns / norms, assembled.labels)
    blocks: list[LayeredBlock] = []
    col_off = 0
    row_off = 0
    for m, eps, q, flat_basis, flat_mass, n_m in layer_data:
        total_cols = 2 * n_m + 1
        global_flat = np.zeros((assembled.dim, m), dtype=np.complex128)
        global_flat[row_off : row_off + n_m, :] = flat_basis
        blocks.append(
            LayeredBlock(
                m=m,
                eps=eps,
                copy_size=q,
                basis_slice=slice(col_off, col_off + n_m),
                complement_slice=slice(col_off + n_m, col_off + 2 * n_m - m),
                flat_frame_slice=slice(col_off + 2 * n_m - m, col_off + total_cols),
                flat_subspace=global_flat,
                flat_mass=flat_mass,
            )
        )
        col_off += total_cols
        row_off += n_m
    return assembled, tuple(blocks)


def _complete_to_onb(vector: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of a unit vector (q x (q-1))."""
    q = vector.shape[0]
    stacked = np.concatenate([vector[:, None], np.eye(q, dtype=np.complex128)], axis=1)
    qmat, _ = np.linalg.qr(stacked)
    return qmat[:, 1:q]


@dataclass(frozen=True)
class PatternAudit:
    """Outcome of one drop-pattern case in the layered-construction audit."""

    layer: int  # the layer's m value
    kept: tuple[int, ...]  # indices kept inside the layer's m+1 tight-frame columns
    case: str  # dependent | basis_constant | flat_mass
    value: float
    threshold: float
    satisfied: bool


def audit_prop53(
    depth: int,
    epsilons,
    a: float = 0.45,
    start_frequency: int = 8,
) -> tuple[PatternAudit, ...]:
    """Exhaustive audit over drop patterns of the embedded tight-frame families.

    Every spanning subset of the assembled system induces, per layer, a kept
    subset of that layer's m+1 tight-frame vectors, and its quality certificate
    depends only on that pattern: keeping all m+1 forces dependence, keeping
    exactly m forces a basis constant at least sqrt(m-2)/4, and dropping below
    m leaves a unit vector in the flat subspace whose analysis mass against
    everything still allowed is at most the layer's epsilon (hence Riesz
    constant at least 1/sqrt(eps)).
    """
    system, blocks = build_prop53_truncation(depth, epsilons, a, start_frequency)
    audits: list[PatternAudit] = []
    for block in blocks:
        m = block.m
        frame_cols = list(range(block.flat_frame_slice.start, block.flat_frame_slice.stop))
        frame_local = lemma51(m).columns
        for size in range(m + 2):
            for kept in itertools.combinations(range(m + 1), size):
                if size == m + 1:
                    sigma = smallest_singular_value(
                        system.columns[:, [frame_cols[i] for i in kept]]
                    )
                    audits.append(
                        PatternAudit(m, kept, "dependent", sigma, 1e-8, sigma <= 1e-8)
                    )
                elif size == m:
                    constant = schauder_basis_constant(
                        system.subsystem([frame_cols[i] for i in kept])
                    )
                    threshold = math.sqrt(max(m - 2, 0)) / 4.0
                    audits.append(
                        PatternAudit(
                            m,
                            kept,
                            "basis_constant",
                            constant,
                            threshold,
                            constant >= threshold - 1e-12,
                        )
                    )
                else:
                    witness = _flat_witness(block, frame_local, kept)
                    dropped = [frame_cols[i] for i in range(m + 1) if i not in kept]
                    allowed = [
                        i for i in range(system.count) if i not in set(dropped)
                    ]
                    mass = float(
                        np.sum(
                            np.abs(
                                system.columns[:, allowed].conj().T @ witness
                            )
                            ** 2
                        )
                    )
                    audits.append(
                        PatternAudit(
                            m, kept, "flat_mass", mass, block.eps, mass <= block.eps + 1e-12
                        )
                    )
    return tuple(audits)


def _flat_witness(block: LayeredBlock, frame_local: np.ndarray, kept) -> np.ndarray:
    """Unit vector in the flat subspace orthogonal to the kept tight-frame vectors."""
    kept = list(kept)
    if kept:
        u, svals, _ = np.linalg.svd(frame_local[:, kept], full_matrices=True)
        rank = int(np.count_nonzero(svals > 1e-12 * svals[0])) if svals.size else 0
        coords = u[:, -1] if rank < u.shape[1] else u[:, 0]
        if rank >= u.shape[1]:  # pragma: no cover - kept < m always leaves a null direction
            raise BadParameter("no flat witness exists")
    else:
        coords = np.zeros(block.m, dtype=np.complex128)
        coords[0] = 1.0
    return block.flat_subspace @ coords


# ---------------------------------------------------------------------------
# dispatch from a serializable description


GALLERY_KINDS = (
    "orthonormal",
    "lemma51",
    "duplicated",
    "perturbedPairs",
    "weightedExponentials",
    "lemma52Block",
    "prop53Truncation",
    "randomFrame",
)


@dataclass(frozen=True)
class GallerySpec:
    """Serializable description of one gallery system: a kind plus its parameters."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in GALLERY_KINDS:
            raise BadParameter(f"unknown gallery kind {self.kind!r}")


_MISSING = object()


def generate(spec: GallerySpec) -> VectorSystem:
    """Build the system described by the spec.  Deterministic given the spec."""
    p = dict(spec.params)

    def take(name, convert, default=_MISSING):
        if name in p:
            value = p.pop(name)
        elif default is _MISSING:
            raise BadParameter(
                f"gallery kind {spec.kind!r} is missing parameter {name!r}"
            )
        else:
            value = default
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BadParameter(
                f"gallery kind {spec.kind!r}: parameter {name!r} got {value!r}"
            ) from exc

    def raw(value):
        return value

    def floats(values):
        return [float(v) for v in values]

    if spec.kind == "orthonormal":
        build = lambda: orthonormal(take("n", int))
    elif spec.kind == "lemma51":
        build = lambda: lemma51(take("n", int))
    elif spec.kind == "duplicated":
        build = lambda: duplicated(take("n", int), take("doubleAmbient", bool, False))
    elif spec.kind == "perturbedPairs":
        build = lambda: perturbed_pairs(take("n", int))
    elif spec.kind == "weightedExponentials":
        build = lambda: weighted_exponentials(
            take("a", float), take("N", int), take("sign", raw), take("normalized", bool, True)
        )
    elif spec.kind == "lemma52Block":
        build = lambda: lemma52_block(
            take("k", int), take("eps", float), take("a", float, 0.45), take("startN", int, 8)
        )
    elif spec.kind == "prop53Truncation":
        build = lambda: prop53_truncation(
            take("M", int),
            take("epsilons", floats),
            take("a", float, 0.45),
            take("startN", int, 8),
            take("normalized", bool, True),
        )
    elif spec.kind == "randomFrame":
        build = lambda: random_frame(
            take("n", int), take("m", int), take("seed", int, 0), take("cond", float, 100.0)
        )
    else:  # pragma: no cover - GallerySpec already validates the kind
        raise BadParameter(f"unknown gallery kind {spec.kind!r}")
    system = build()
    if p:
        raise BadParameter(
            f"gallery kind {spec.kind!r} got unknown parameters {sorted(p)}"
        )
    return system


def _require_positive(value: int, name: str) -> None:
    if int(value) != value or value < 1:
        raise BadParameter(f"{name} must be a positive integer, got {value!r}")
