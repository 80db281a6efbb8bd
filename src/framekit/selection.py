"""Well-invertible column subset selection.

Given a system of (near-)unit-norm vectors, find an index subset whose columns
have a large smallest singular value.  The exhaustive search is the desk-scale
oracle; the greedy heuristic scales and is compared against the oracle in the
test suite.  Both are deterministic: ties break toward the lexicographically
smallest index sequence, a tie being any candidate whose smallest Gram
eigenvalue is within TIE_RTOL * max diag(gram) of the best one.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import VectorSystem, gram
from .errors import BadParameter, BadTarget, TooLarge, ZeroNorm

DEFAULT_SUBSET_GUARD = 1_000_000
# eigenvalues this close (relative to the largest squared norm) are a tie that
# roundoff would otherwise decide; the first candidate among them wins
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class SelectionResult:
    """Chosen index subset plus its certified smallest singular value."""

    subset: tuple[int, ...]
    certified_lower_bound: float
    method: str
    target_size: int
    normalization_applied: bool = False


def bt_guarantee_size(count: int, operator_norm: float, c: float) -> int:
    """floor(c * count / operator_norm^2): the subset size the selection guarantee promises."""
    if count < 0:
        raise BadParameter("count must be nonnegative")
    if operator_norm <= 0:
        raise BadParameter("operator norm must be positive")
    if not 0.0 < c <= 1.0:
        raise BadParameter("c must lie in (0, 1]")
    return int(math.floor(c * count / operator_norm**2))


def smallest_singular_value(columns: np.ndarray) -> float:
    """sigma_min of the given columns as a map from coefficient space.

    Zero when there are more columns than rows.  Computed from the SVD of the
    columns (not the Gram matrix) so values near zero carry no sqrt-amplified
    eigenvalue dust.
    """
    k = columns.shape[1]
    if k > columns.shape[0]:
        return 0.0
    svals = np.linalg.svd(columns, compute_uv=False)
    return float(svals[k - 1])


def _validated_columns(system: VectorSystem, normalize: bool) -> np.ndarray:
    if not normalize:
        return system.columns
    norms = system.norms()
    if np.any(norms == 0.0):
        raise ZeroNorm("cannot normalize a zero column")
    return system.columns / norms


def _min_eig(gram: np.ndarray, idx: list[int]) -> float:
    sub = gram[np.ix_(idx, idx)]
    return float(np.linalg.eigvalsh(sub)[0])


def _first_tied_best(lams: np.ndarray, gram: np.ndarray) -> int:
    """Position of the first candidate whose eigenvalue ties the best one."""
    scale = float(np.max(np.real(np.diagonal(gram))))
    return int(np.argmax(lams >= lams.max() - TIE_RTOL * scale))


def greedy_order(gram: np.ndarray, limit: int, stop_below: float | None = None):
    """Greedy augmentation order maximizing sigma_min at every step.

    Returns (indices, bounds) where bounds[k] is sigma_min after k+1 picks.
    Stops early once the best achievable bound falls under stop_below; by
    eigenvalue interlacing the bounds sequence is nonincreasing, so the
    prefix kept is the largest one certified above the threshold.
    """
    m = gram.shape[0]
    limit = min(limit, m)
    chosen: list[int] = []
    taken = np.zeros(m, dtype=bool)
    bounds: list[float] = []
    while len(chosen) < limit:
        candidates = np.flatnonzero(~taken)
        lams = np.array([_min_eig(gram, chosen + [j]) for j in candidates])
        pick = _first_tied_best(lams, gram)
        bound = math.sqrt(max(lams[pick], 0.0))
        if stop_below is not None and bound < stop_below:
            break
        best_j = int(candidates[pick])
        chosen.append(best_j)
        taken[best_j] = True
        bounds.append(bound)
    return chosen, bounds


def select_greedy(
    system: VectorSystem, target_size: int, normalize: bool = False
) -> SelectionResult:
    """Grow the subset one index at a time, each time maximizing sigma_min."""
    if not 1 <= target_size <= system.count:
        raise BadTarget(f"target size must be in [1, {system.count}]")
    cols = _validated_columns(system, normalize)
    chosen, _ = greedy_order(gram(cols), target_size)
    bound = smallest_singular_value(cols[:, chosen])
    return SelectionResult(
        subset=tuple(sorted(chosen)),
        certified_lower_bound=bound,
        method="greedy",
        target_size=target_size,
        normalization_applied=normalize,
    )


def select_exhaustive(
    system: VectorSystem,
    target_size: int,
    max_subsets: int = DEFAULT_SUBSET_GUARD,
    normalize: bool = False,
) -> SelectionResult:
    """Exact optimum of sigma_min over all subsets of the target size."""
    m = system.count
    if not 1 <= target_size <= m:
        raise BadTarget(f"target size must be in [1, {m}]")
    n_subsets = math.comb(m, target_size)
    if n_subsets > max_subsets:
        raise TooLarge(
            f"C({m}, {target_size}) = {n_subsets} exceeds the guard {max_subsets}"
        )
    cols = _validated_columns(system, normalize)
    g = gram(cols)
    combos = itertools.combinations(range(m), target_size)
    lams = np.fromiter((_min_eig(g, list(combo)) for combo in combos), float, n_subsets)
    # combinations come in lexicographic order, so the first tied subset wins
    pick = _first_tied_best(lams, g)
    best = next(itertools.islice(itertools.combinations(range(m), target_size), pick, None))
    bound = smallest_singular_value(cols[:, list(best)])
    return SelectionResult(
        subset=best,
        certified_lower_bound=bound,
        method="exhaustive",
        target_size=target_size,
        normalization_applied=normalize,
    )
