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

import functools
import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import OperatorPower, VectorSystem, _column_norms, frame_operator
from .errors import BadParameter, EmptyInput, NotFlat, QuadratureFailure
from .metrics import schauder_basis_constant, smallest_singular_value

FLAT_SIZE_CAP = 512
SYSTEM_SIZE_CAP = 1 << 24  # dim * count of one synthesis matrix: 256 MiB of complex128


# ---------------------------------------------------------------------------
# elementary constructions


def orthonormal(n: int) -> VectorSystem:
    """The standard orthonormal basis of C^n."""
    n = _require_positive(n, "n")
    _require_size(n, n)
    return VectorSystem(np.eye(n, dtype=np.complex128), tuple(f"e{i + 1}" for i in range(n)))


def lemma51(n: int) -> VectorSystem:
    """n+1 vectors in C^n: f_i = e_i - mean, plus the normalized all-ones vector.

    A tight frame with bounds A = B = 1 whose n-element subsets are badly
    conditioned as bases (basis constant growing like sqrt(n)/4).
    """
    n = _require_positive(n, "n")
    _require_size(n, n + 1)
    cols = np.zeros((n, n + 1), dtype=np.complex128)
    cols[:, :n] = np.eye(n) - np.full((n, n), 1.0 / n)
    cols[:, n] = 1.0 / math.sqrt(n)
    return VectorSystem(cols, tuple(f"f{i + 1}" for i in range(n + 1)))


def duplicated(n: int, double_ambient: bool = False) -> VectorSystem:
    """Each basis vector of C^n repeated twice, interleaved.

    With ``double_ambient`` the 2n vectors sit inside C^{2n} and span only
    half of it; otherwise they sit in C^n and form a tight frame with bounds 2.
    """
    n = _require_positive(n, "n")
    dim = 2 * n if _flag(double_ambient, "double_ambient") else n
    _require_size(dim, 2 * n)
    pair = np.ones((1, 2), dtype=np.complex128)
    cols = block_diag(*[pair] * n, np.zeros((dim - n, 0)))  # the rows past C^n stay zero
    return VectorSystem._own(cols, tuple(f"e{i + 1}{c}" for i in range(n) for c in "ab"))


def perturbed_pairs(n: int) -> VectorSystem:
    """2n vectors in C^{2n}: pairs (e_{2i-1}, e_{2i-1} + e_{2i}/n).

    Linearly independent and spanning, yet any subset keeping both members of
    a pair has Riesz constant of the order of sqrt(2) * n.
    """
    n = _require_positive(n, "n")
    _require_size(2 * n, 2 * n)
    pair = np.array([[1.0, 1.0], [0.0, 1.0 / n]], dtype=np.complex128)
    labels = tuple(f"{v}{i + 1}" for i in range(n) for v in "uv")
    return VectorSystem._own(block_diag(*[pair] * n), labels)


def random_frame(n: int, m: int, seed: int, cond: float = 100.0) -> VectorSystem:
    """Seeded random spanning system whose frame operator has the given condition number."""
    n = _require_positive(n, "n")
    m = _require_positive(m, "m")
    if m < n:
        raise BadParameter("a spanning system needs m >= n")
    cond = _finite_parameter(cond, "condition number")
    if cond < 1.0:
        raise BadParameter(f"condition number must be finite and at least 1, got {cond!r}")
    seed = _require_positive(seed, "seed", minimum=0)
    _require_size(n, m)
    rng = np.random.default_rng(seed)
    left = _random_isometry(n, n, rng)
    right = _random_isometry(m, n, rng)
    svals = np.logspace(0.0, -0.5 * math.log10(cond), n)
    return VectorSystem._own((left * svals) @ right.conj().T)


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


@functools.lru_cache(maxsize=4)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The read-only Gauss-Legendre nodes and weights on [-1, 1], built once per node count.

    The rule solves a nodes x nodes eigenproblem, so past FLAT_SIZE_CAP nodes it is refused.
    """
    if nodes > FLAT_SIZE_CAP:
        raise BadParameter(f"nodes must be at most {FLAT_SIZE_CAP}, got {nodes!r}")
    rule = np.polynomial.legendre.leggauss(nodes)
    for array in rule:
        array.setflags(write=False)
    return rule


def _panel_quadrature(weight_exponent: float, max_delta: int, depth: int, nodes: int, osc: float):
    """Nodes/weights for integral_0^pi x^w f(x) dx minus the innermost [0, h] core.

    Dyadic panels refine toward the singularity at zero; each panel is split
    so the fastest oscillation advances at most ``osc`` radians per piece.
    Level k spans [lo, hi] = [pi / 2^(k+1), pi / 2^k] (halved one level at a
    time), and its edges are linspace's: i * step + lo, the last one hi.
    Refuses a table of (max_delta + 1) * node count past SYSTEM_SIZE_CAP
    from the piece counts, before any node is built, and a depth whose
    innermost edge pi / 2^depth is subnormal, past which x^w can overflow for w < 0.
    """
    _require_table(max_delta + 1, nodes * depth)  # every level has a piece, so this bounds all
    if math.ldexp(math.pi, -depth) < np.finfo(np.float64).tiny:
        raise QuadratureFailure(f"depth {depth}: pi / 2^depth is below the smallest normal double")
    bounds = np.multiply.accumulate(np.r_[math.pi, np.full(depth, 0.5)])
    hi, lo = bounds[:-1], bounds[1:]
    with np.errstate(over="ignore"):  # an overflowing count is refused by the cap
        pieces = np.maximum(1.0, np.ceil((hi - lo) * max(max_delta, 1) / osc))
    _require_table(max_delta + 1, nodes * pieces.sum())
    counts = pieces.astype(np.int64)
    level = np.repeat(np.arange(depth), counts)
    index = np.arange(level.size) - np.repeat(np.cumsum(counts) - counts, counts)
    start, step = lo[level], ((hi - lo) / pieces)[level]
    left = index * step + start
    right = np.where(index + 1 == counts[level], hi[level], (index + 1) * step + start)
    half = ((right - left) / 2.0)[:, None]
    base_x, base_w = _legendre_rule(nodes)
    x = (((left + right) / 2.0)[:, None] + half * base_x).ravel()
    w = (half * base_w).ravel() * x**weight_exponent
    return x, w, float(bounds[-1])


def _core_integrals(weight_exponent: float, h: float, deltas: np.ndarray) -> np.ndarray:
    """integral_0^h x^w cos(delta x) dx by power series (exact for tiny h).

    Each delta's series stops after the first term whose next coefficient
    times h^(w+1) is below 1e-30, or after 60 terms; callers keep delta * h
    at most 1, where 60 terms are far more than the stop needs.
    """
    total = np.zeros(deltas.shape[0])
    coeff = np.ones(deltas.shape[0])  # accumulates (-1)^j (delta h)^(2j) / (2j)!
    live = np.ones(deltas.shape[0], dtype=bool)
    power = h ** (weight_exponent + 1.0)
    dh = deltas * h
    for j in range(60):
        np.add(total, coeff * power / (weight_exponent + 2 * j + 1.0), out=total, where=live)
        coeff *= -dh * dh / ((2 * j + 1.0) * (2 * j + 2.0))
        live &= ~(np.abs(coeff * power) < 1e-30)
        if not live.any():
            break
    return total


def weight_fourier_integrals(
    weight_exponent: float,
    max_delta: int,
    depth: int = 40,
    nodes: int = 16,
    osc: float = 6.0,
) -> np.ndarray:
    """I(delta) = integral_{-pi}^{pi} |x|^w e^(i delta x) dx for delta = 0..max_delta.

    The weight is even, so the integrals are real and I(-delta) = I(delta).
    Raises BadParameter for an exponent that is not a finite number above -1,
    a max_delta that is not an integer >= 0, a depth or node count that is not
    an integer >= 1, an osc that is not a finite positive number, a table of
    (max_delta + 1) * quadrature nodes past SYSTEM_SIZE_CAP, and a node count
    past FLAT_SIZE_CAP, whose Gauss-Legendre rule is a dense eigenproblem.
    Raises QuadratureFailure when max_delta * pi / 2^depth exceeds 1, past
    which the power series of the innermost core cannot be trusted, and when
    pi / 2^depth is below the smallest normal double (depth > 1023), past
    which the innermost panels underflow.
    """
    weight_exponent = _finite_parameter(weight_exponent, "weight exponent")
    if weight_exponent <= -1.0:
        raise BadParameter("weight exponent must exceed -1 for integrability")
    max_delta = _require_positive(max_delta, "max_delta", minimum=0)
    depth = _require_positive(depth, "depth")
    nodes = _require_positive(nodes, "nodes")
    osc = _finite_parameter(osc, "osc")
    if not osc > 0.0:
        raise BadParameter(f"osc must be positive, got {osc!r}")
    if max_delta * math.ldexp(math.pi, -depth) > 1.0:
        raise QuadratureFailure(
            f"core series inaccurate: max_delta * pi / 2^depth exceeds 1 (depth {depth})"
        )
    x, w, h = _panel_quadrature(weight_exponent, max_delta, depth, nodes, osc)
    oscillatory = _cosine_sums(x, w, max_delta)
    return 2.0 * (oscillatory + _core_integrals(weight_exponent, h, np.arange(max_delta + 1)))


def _cosine_sums(x: np.ndarray, w: np.ndarray, max_delta: int) -> np.ndarray:
    """sum_j w_j cos(delta x_j) for delta = 0..max_delta, as two small GEMMs.

    With delta = q B + r, B = isqrt(max_delta + 1) and 0 <= r < B, angle
    addition gives cos(delta x) = cos(q B x) cos(r x) - sin(q B x) sin(r x),
    so the sums are cos(QBx) @ (cos(Rx) w)^T - sin(QBx) @ (sin(Rx) w)^T: about
    4 sqrt(max_delta) N trig calls instead of a (max_delta + 1) x N table.
    """
    block = math.isqrt(max_delta + 1)
    steps = np.outer(np.arange(0, max_delta + 1, block), x)  # q B x
    offsets = np.outer(np.arange(block), x)  # r x
    sums = np.cos(steps) @ (np.cos(offsets) * w).T - np.sin(steps) @ (np.sin(offsets) * w).T
    return sums.ravel()[: max_delta + 1]


def _normalize_sign(sign) -> int:
    # True == 1, so a flag is refused before it can pass as the sign +1
    if not isinstance(sign, (bool, np.bool_)):
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
    a = _finite_parameter(a, "a")
    if not 0.0 <= a < 0.5:
        raise BadParameter("a must lie in [0, 1/2)")
    max_frequency = _require_positive(max_frequency, "max_frequency", minimum=0)
    _require_size(2 * max_frequency + 1, 2 * max_frequency + 1)
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
            f"diagonal {float(fine[0])!r} misses closed form {closed_diag!r}"
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
    max_frequency = _require_positive(max_frequency, "max_frequency", minimum=0)
    gram = weighted_exponential_gram(a, max_frequency, signum)
    if _flag(normalized, "normalized"):
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
    operator, read off its OperatorPower; raises NotFlat (carrying the
    achieved mass) when even that exceeds the budget, in which case callers
    enlarge the system and retry.
    The vector is complex128 even when the frame operator is real.
    """
    if not budget > 0.0:  # also rejects NaN
        raise BadParameter("budget must be positive")
    return _bottom_vector(OperatorPower._of_operator(frame_operator(system), 1.0), budget)


def _bottom_vector(power: OperatorPower, budget: float) -> np.ndarray:
    """find_flat_vector, for the OperatorPower of the frame operator already factored."""
    achieved = power.bounds[0]
    if achieved > budget:
        raise NotFlat(
            f"best analysis mass {achieved:.6g} exceeds budget {budget:.6g}", achieved
        )
    return power.eigenvectors[:, -1].astype(np.complex128)


def block_diag(*arrays: np.ndarray) -> np.ndarray:
    """The 2-d arrays laid out along the diagonal of a zero matrix, as scipy.linalg.block_diag."""
    out = np.zeros(
        (sum(a.shape[0] for a in arrays), sum(a.shape[1] for a in arrays)),
        np.result_type(*(a.dtype for a in arrays)),
    )
    row = col = 0
    for a in arrays:
        out[row:row + a.shape[0], col:col + a.shape[1]] = a
        row, col = row + a.shape[0], col + a.shape[1]
    return out


def assemble_block_system(blocks) -> VectorSystem:
    """Direct-sum embedding: block j's vectors zero-padded into slot j.

    The frame operator is block-diagonal, so the assembled frame bounds are
    the min/max of the block bounds.
    """
    return VectorSystem._own(*_block_columns(blocks))


def _block_columns(blocks) -> tuple[np.ndarray, tuple[str, ...] | None]:
    """The columns, in a fresh array, and the labels of assemble_block_system(blocks)."""
    blocks = list(blocks)
    if not blocks:
        raise EmptyInput("need at least one block")
    _require_size(sum(b.dim for b in blocks), sum(b.count for b in blocks))
    cols = block_diag(*(b.columns for b in blocks))
    labels = None
    if all(b.labels is not None for b in blocks):
        labels = tuple(f"b{j}:{lab}" for j, b in enumerate(blocks) for lab in b.labels)
    return cols, labels


@dataclass(frozen=True, eq=False)
class FlatBlock:
    """A conditional-basis block together with one certified flat direction."""

    system: VectorSystem
    flat_vector: np.ndarray
    flat_mass: float


def _flat_conditional_basis(
    budget: float, a: float, start_frequency: int, ladder: dict | None = None
) -> FlatBlock:
    """Grow the Hilbertian-side weighted exponential family until it admits a flat vector.

    ladder maps each max frequency tried to its family and the OperatorPower
    of its frame operator; builds that search several budgets pass one
    ladder, so each frequency is built and factored once.  The flat mass is
    the smallest eigenvalue of that OperatorPower, the one tested against
    the budget.
    """
    if not budget > 0.0:  # also rejects NaN
        raise BadParameter("budget must be positive")
    ladder = {} if ladder is None else ladder
    max_frequency = start_frequency
    while True:
        if max_frequency not in ladder:
            system = weighted_exponentials(a, max_frequency, +1, normalized=True)
            ladder[max_frequency] = system, OperatorPower._of_operator(frame_operator(system), 1.0)
        system, power = ladder[max_frequency]
        try:
            flat = _bottom_vector(power, budget)
        except NotFlat:
            if 2 * max_frequency + 1 > FLAT_SIZE_CAP:
                raise
            max_frequency = max(1, 2 * max_frequency)
            continue
        return FlatBlock(system, flat, power.bounds[0])


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
    k = _require_positive(k, "k")
    _require_size(k, k)  # k copies of a block at least 1 x 1, checked before eps / k
    eps = _finite_parameter(eps, "eps")
    if not eps > 0.0:
        raise BadParameter(f"eps must be positive and finite, got {eps!r}")
    start_frequency = _require_positive(start_frequency, "start_frequency", minimum=0)
    block = _flat_conditional_basis(eps / k, a, start_frequency)
    system = assemble_block_system([block.system] * k)
    flat_basis = block_diag(*[block.flat_vector[:, None]] * k)
    return system, flat_basis, block.system.count


@dataclass(frozen=True, eq=False)
class LayeredBlock:
    """Bookkeeping for one layer of the truncated construction."""

    m: int
    eps: float
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
    Each layer holds m diagonal copies of the conditional basis, m copies of
    an orthonormal basis of the flat vector's complement, and the m+1
    mean-centered tight-frame vectors embedded into the flat subspace that the
    m copies of the flat vector span.  With ``normalized`` every column is
    rescaled to unit norm at the end.
    """
    depth = _require_positive(depth, "depth")
    try:
        eps_list = [_finite_parameter(e, "epsilon values") for e in epsilons]
    except TypeError as exc:  # epsilons is not iterable
        raise BadParameter(f"epsilons must be a sequence of numbers, got {epsilons!r}") from exc
    if len(eps_list) != depth:
        raise BadParameter(f"expected {depth} epsilon values, got {len(eps_list)}")
    if not all(e > 0.0 for e in eps_list):
        raise BadParameter(f"epsilon values must be positive and finite, got {eps_list!r}")
    start_frequency = _require_positive(start_frequency, "start_frequency", minimum=0)
    normalized = _flag(normalized, "normalized")
    flats: list[FlatBlock] = []
    layers: list[VectorSystem] = []
    ms = range(2, depth + 2)
    ladder: dict = {}
    for m, eps in zip(ms, eps_list):  # each layer's size is checked before the next search
        flats.append(_flat_conditional_basis(eps / m, a, start_frequency, ladder))
        layers.append(_prop53_layer(flats[-1], m))
    del ladder  # its families and factors are not held while the layers are assembled
    cols, labels = _block_columns(layers)
    # keep only the layer counts, so the layers' columns are freed before normalizing
    ends = list(itertools.accumulate(layer.count for layer in layers))
    del layers
    if normalized:
        cols /= _column_norms(cols)
    assembled = VectorSystem._own(cols, labels)
    flat_columns = [flat.flat_vector[:, None] for flat, m in zip(flats, ms) for _ in range(m)]
    subspaces = np.hsplit(block_diag(*flat_columns), list(itertools.accumulate(ms))[:-1])
    blocks = tuple(
        LayeredBlock(m, eps, slice(end - m - 1, end), subspace, flat.flat_mass)
        for m, eps, end, subspace, flat in zip(ms, eps_list, ends, subspaces, flats)
    )
    return assembled, blocks


def _prop53_layer(flat: FlatBlock, m: int) -> VectorSystem:
    """Layer m of the truncation, size-checked before any layout; temporaries freed on return."""
    n_m = m * flat.system.count
    _require_size(n_m, 2 * n_m + 1)
    cols = np.hstack([
        block_diag(*[flat.system.columns] * m),
        block_diag(*[_complete_to_onb(flat.flat_vector)] * m),
        block_diag(*[flat.flat_vector[:, None]] * m) @ lemma51(m).columns,
    ])
    labels = [f"g{i}" for i in range(n_m)] + [f"e{i}" for i in range(n_m - m)]
    labels += [f"f{i}" for i in range(m + 1)]
    return VectorSystem._own(cols, labels)


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
        frame_cols = range(block.flat_frame_slice.start, block.flat_frame_slice.stop)
        frame_local = lemma51(m).columns
        for size in range(m + 2):
            for kept in itertools.combinations(range(m + 1), size):
                kept_cols = [frame_cols[i] for i in kept]
                if size == m + 1:
                    sigma = smallest_singular_value(system.columns[:, kept_cols])
                    audits.append(PatternAudit(m, kept, "dependent", sigma, 1e-8, sigma <= 1e-8))
                elif size == m:
                    constant = schauder_basis_constant(system.subsystem(kept_cols))
                    threshold = math.sqrt(max(m - 2, 0)) / 4.0
                    audits.append(
                        PatternAudit(
                            m, kept, "basis_constant", constant, threshold,
                            constant >= threshold - 1e-12,
                        )
                    )
                else:
                    witness = _flat_witness(block, frame_local, kept)
                    allowed = np.ones(system.count, dtype=bool)
                    allowed[block.flat_frame_slice] = False
                    allowed[kept_cols] = True
                    inner = system.columns[:, allowed].conj().T @ witness
                    mass = float(np.sum(np.abs(inner) ** 2))
                    ok = mass <= block.eps + 1e-12
                    audits.append(PatternAudit(m, kept, "flat_mass", mass, block.eps, ok))
    return tuple(audits)


def _flat_witness(block: LayeredBlock, frame_local: np.ndarray, kept) -> np.ndarray:
    """Unit vector in the flat subspace orthogonal to the kept tight-frame vectors.

    Callers keep fewer than m of the m+1 vectors, so the kept columns never span
    the m-dimensional flat coordinates and the last left singular vector is
    orthogonal to all of them.
    """
    kept = list(kept)
    if kept:
        coords = np.linalg.svd(frame_local[:, kept], full_matrices=True)[0][:, -1]
    else:
        coords = np.zeros(block.m, dtype=np.complex128)
        coords[0] = 1.0
    return block.flat_subspace @ coords


# ---------------------------------------------------------------------------
# dispatch from a serializable description


def exact_int(value) -> int:
    """value as an int, never truncated: ints (not bools) and integral floats.

    Raises TypeError or ValueError for anything else; callers turn those into
    their own error type.
    """
    if isinstance(value, bool):
        raise TypeError(f"expected an integer, got {value!r}")
    if isinstance(value, float):
        if not value.is_integer():
            raise ValueError(f"expected an integer, got {value!r}")
        return int(value)
    return operator.index(value)


def real_number(value) -> float:
    """value as a float: Python and numpy ints and floats, never a bool or a string.

    Raises TypeError for anything else and OverflowError for an int past the
    double range; callers turn those into their own error type.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


# kind -> (builder, JSON names of its positional parameters, defaults of the optional ones);
# the builders convert and check every value themselves
_GALLERY = {
    "orthonormal": (orthonormal, ("n",), {}),
    "lemma51": (lemma51, ("n",), {}),
    "duplicated": (duplicated, ("n", "doubleAmbient"), {"doubleAmbient": False}),
    "perturbedPairs": (perturbed_pairs, ("n",), {}),
    "weightedExponentials": (
        weighted_exponentials, ("a", "N", "sign", "normalized"), {"normalized": True}
    ),
    "lemma52Block": (lemma52_block, ("k", "eps", "a", "startN"), {"a": 0.45, "startN": 8}),
    "prop53Truncation": (
        prop53_truncation,
        ("M", "epsilons", "a", "startN", "normalized"),
        {"a": 0.45, "startN": 8, "normalized": True},
    ),
    "randomFrame": (random_frame, ("n", "m", "seed", "cond"), {"seed": 0, "cond": 100.0}),
}
GALLERY_KINDS = tuple(_GALLERY)


@dataclass(frozen=True)
class GallerySpec:
    """Serializable description of one gallery system: a kind plus its parameters."""

    kind: str
    params: dict

    def __post_init__(self):
        if self.kind not in GALLERY_KINDS:
            raise BadParameter(f"unknown gallery kind {self.kind!r}")


def generate(spec: GallerySpec) -> VectorSystem:
    """Build the system described by the spec.  Deterministic given the spec."""
    build, names, defaults = _GALLERY[spec.kind]
    unknown = sorted(set(spec.params) - set(names))
    if unknown:
        raise BadParameter(f"gallery kind {spec.kind!r} got unknown parameters {unknown}")
    params = {**defaults, **spec.params}
    missing = [name for name in names if name not in params]
    if missing:
        raise BadParameter(f"gallery kind {spec.kind!r} is missing parameter {missing[0]!r}")
    return build(*(params[name] for name in names))


def _require_size(dim: int, count: int) -> None:
    if dim * count > SYSTEM_SIZE_CAP:
        raise BadParameter(f"system too large: dim * count exceeds {SYSTEM_SIZE_CAP}")


def _require_table(deltas: int, node_count) -> None:
    if deltas * node_count > SYSTEM_SIZE_CAP:
        raise BadParameter(f"quadrature table too large: deltas * nodes exceeds {SYSTEM_SIZE_CAP}")


def _require_positive(value, name: str, minimum: int = 1) -> int:
    """value through exact_int, at least minimum (1 unless given), else BadParameter."""
    try:
        result = exact_int(value)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"{name} must be an integer, got {value!r}") from exc
    if result < minimum:
        raise BadParameter(f"{name} must be at least {minimum}, got {value!r}")
    return result


def _finite_parameter(value, name: str) -> float:
    """value as a finite double, else BadParameter."""
    try:
        result = real_number(value)
    except (TypeError, OverflowError):
        result = math.nan
    if not math.isfinite(result):
        raise BadParameter(f"{name} must be a finite number, got {value!r}")
    return result


def _flag(value, name: str) -> bool:
    """value if it is True or False, else BadParameter."""
    if not isinstance(value, bool):
        raise BadParameter(f"{name} must be true or false, got {value!r}")
    return value
