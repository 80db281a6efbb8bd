import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, settings

settings.register_profile(
    "fast",
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


FACTORIZATIONS = {
    np.linalg: ("svd", "qr", "eig", "eigh", "eigvals", "eigvalsh", "pinv", "lstsq",
                "cholesky", "inv", "solve"),
    scipy.linalg: ("svd", "svdvals", "qr", "eig", "eigh", "eigvals", "eigvalsh", "pinv",
                   "lstsq", "cholesky", "inv", "solve", "solve_triangular", "lu",
                   "lu_factor"),
}


@pytest.fixture
def factorization_shapes(monkeypatch):
    """Operand shape of every numpy.linalg / scipy.linalg factorization call."""
    shapes = []
    for module, names in FACTORIZATIONS.items():
        for name in names:
            def counted(*args, _original=getattr(module, name), **kwargs):
                shapes.append(np.shape(args[0]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return shapes


def traced_peak(call):
    """The peak of the memory traced by tracemalloc during call(), in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
