"""Shared builders for the test suite."""
import os

# One BLAS thread, set before numpy loads, as benchmarks/run.py does: the
# suite's operators are small, and with a second process busy on a 2-core
# host OpenBLAS's default threads made one call 20 times slower.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from eqnf import normalform, polymap  # noqa: E402
from eqnf.polymap import TruncatedMap, num_monomials  # noqa: E402


@pytest.fixture
def rand_map():
    """Builder: rand_map(rng, n, order, amp, with_linear, invertible)."""

    def make(rng, n, order, amp=0.5, with_linear=True, invertible=False):
        F = TruncatedMap.zero(n, order)
        for d in range(1, order + 1):
            F.layers[d - 1] = amp * rng.standard_normal((n, num_monomials(n, d)))
        if not with_linear:
            F.layers[0] = np.zeros((n, n))
        if invertible:
            # diagonally dominant linear part keeps the map locally invertible
            F.layers[0] = F.layers[0] + 2.0 * np.eye(n)
        return F

    return make


@pytest.fixture
def ck_builds(monkeypatch):
    """(degree, path) of every C_d solver built during the test, in order;
    the path is "series" (the psi series) or "dense" (an LU of C_d)."""
    built = []

    class CountingSolver(polymap._CkSolver):
        __slots__ = ()

        def __init__(self, X1, d):
            super().__init__(X1, d)
            built.append((d, "series" if self.lu is None else "dense"))

    for module in (polymap, normalform):
        monkeypatch.setattr(module, "_CkSolver", CountingSolver)
    return built
