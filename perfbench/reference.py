"""Machine-speed reference: a fixed piece of numpy and Python work, timed between calls.

The benchmark's host is a small share of a busy machine, and its speed drifts
by a quarter or more over tens of seconds while other tenants come and go.  A
raw pass time then says more about the neighbours than about framekit.  So an
untraced run times this reference before every CLI call of a pass and once at
its end, and scales each call's time by how fast the reference ran around it:

    scaled_wall_s = sum over calls of  seconds * NOMINAL_S / mean(reference just before, just after)

A call whose Op has ``scaled=False`` adds its raw seconds: `verify-lemmas` on
the 901x901 system, ten dense `eigh` calls whose speed did not follow the
reference's drift (the reference varied by 1.6x across runs while they varied
by 1.1x), so scaling them would add noise, not remove it.

The reference is the benchmark's own code and never calls framekit, so a
change to framekit moves `scaled_wall_s` exactly as it moves `wall_s`; only the
machine's speed is divided out.  Its mix follows the passes: many small
Hermitian eigenvalue problems in a Python loop (greedy selection and the
per-vector SVD loops), one medium dense `eigh`, matrix-vector products that
stream a 6.5 MB matrix from memory, and a JSON round trip of floats
(serialization).
"""
from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Median of reference_seconds() on the development machine
# (one core of a 2-core VM, numpy 2.4 with scipy-openblas 0.3.31, 1 BLAS thread).
# It only fixes the scale: scaled_wall_s is wall_s on a machine of that speed.
NOMINAL_S = 0.05
REPEATS = 3

_rng = np.random.default_rng(20240601)
_COLUMNS = _rng.standard_normal((48, 96))
_GRAM = _COLUMNS.T @ _COLUMNS
_SQUARE = _rng.standard_normal((256, 256))
_SQUARE = _SQUARE + _SQUARE.T
_FLOATS = _rng.standard_normal(10000).tolist()
_WIDE = _rng.standard_normal((900, 900))  # 6.5 MB: its products stream from memory
_eigvalsh = np.linalg.eigvalsh  # bound at import: never a traced wrapper
_eigh = np.linalg.eigh


def reference_seconds() -> float:
    """Median wall time of REPEATS fixed units of reference work, so one burst does not count."""
    # The call before may have evicted the reference's data; bring it back untimed.
    _GRAM.sum(), _SQUARE.sum(), _WIDE.sum(), sum(_FLOATS)
    return statistics.median(_unit_seconds() for _ in range(REPEATS))


def _unit_seconds() -> float:
    start = perf_counter()
    for k in range(1, 30):
        head = list(range(k))
        for j in range(k, 96, 6):
            index = head + [j]
            _eigvalsh(_GRAM[np.ix_(index, index)])
    _eigh(_SQUARE)
    vector = _WIDE[0]
    for _ in range(15):
        vector = _WIDE @ vector
        vector /= np.abs(vector).max()
    json.loads(json.dumps(_FLOATS))
    return perf_counter() - start
