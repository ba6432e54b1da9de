import os
import sys
import warnings

# One BLAS thread for the whole session, set before numpy loads: numpy and
# scipy each bring their own OpenBLAS, and with several threads each their
# thread pools spin against each other when calls interleave (the fit mixes
# scipy's dgeqrf with numpy's lstsq).  Criterion 7's pins are one-thread
# values.  An explicit setting in the environment wins.
if "numpy" in sys.modules:
    warnings.warn("numpy was imported before tests/conftest.py could pin one BLAS "
                  "thread; BLAS keeps the thread count it started with")
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

import multiprocessing
import threading
import weakref

import numpy as np
import pytest

import rbainv as rb
from rbainv import inversion, shifted


def receiver_grid(lo, hi, n):
    xs = np.linspace(lo, hi, n)
    return np.array([(x, y) for y in xs for x in xs])


@pytest.fixture(scope="session")
def channels31():
    return rb.TimeChannels.logspaced(1e-6, 1e-3, 31)


@pytest.fixture(scope="session")
def problem_1d():
    spec = rb.ProblemSpec(
        dimension=1, extent=(0.0, 1.0), n_cells=(10,), kappa=1.0,
        sigma_background=0.1,
        receivers=np.array([[0.35], [0.65]]),
        source=rb.SourceSpec(kind="delta", position=(0.5,), amplitude=1.0),
    )
    return rb.build_problem(spec)


@pytest.fixture(scope="session")
def small_problem():
    """2-D, N=49, P=128: fast enough for derivative and adjoint tests."""
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(8, 8), kappa=1e5,
        sigma_background=0.1,
        receivers=receiver_grid(-45.0, 45.0, 3),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-40, -10, -40, -10), sigma=1.0, name="cond"),),
    )
    return rb.build_problem(spec)


@pytest.fixture(scope="session")
def small_approx(small_problem):
    """16 poles, 7 channels, interval wide enough for perturbed models."""
    channels = rb.TimeChannels.logspaced(1e-6, 1e-3, 7)
    bound = rb.spectral_bound(small_problem, small_problem.reference_model())
    return rb.fit_common_pole(channels, (0.0, 30.0 * bound), 16,
                              rb.FitConfig(grid_size=500))


@pytest.fixture(scope="session")
def acc_problem():
    """N <= 200 geometry: 7x7 receivers at 15 m spacing, source loop analog,
    one conductive and one resistive block."""
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(13, 13), kappa=1e5,
        sigma_background=0.1,
        receivers=receiver_grid(-45.0, 45.0, 7),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-40, -10, -40, -10), sigma=1.0, name="cond"),
                   rb.AnomalySpec(box=(10, 40, 10, 40), sigma=0.01, name="res")),
    )
    return rb.build_problem(spec)


@pytest.fixture(scope="session")
def acc_approx(acc_problem, channels31):
    bound = rb.spectral_bound(acc_problem, acc_problem.true_model())
    return rb.fit_common_pole(channels31, (0.0, 1.05 * bound), 21)


@pytest.fixture(scope="session")
def inv_problem():
    """16x16 inversion testbed with both anomaly polarities."""
    spec = rb.ProblemSpec(
        dimension=2, extent=(-60.0, 60.0, -60.0, 60.0), n_cells=(16, 16), kappa=1e5,
        sigma_background=0.1,
        receivers=receiver_grid(-45.0, 45.0, 7),
        source=rb.SourceSpec(kind="box", center=(0.0, 0.0), size=(40.0, 40.0)),
        anomalies=(rb.AnomalySpec(box=(-40, -10, -40, -10), sigma=1.0, name="cond"),
                   rb.AnomalySpec(box=(10, 40, 10, 40), sigma=0.01, name="res")),
    )
    return rb.build_problem(spec)


@pytest.fixture(scope="session")
def inv_approx(inv_problem, channels31):
    bound = rb.spectral_bound(inv_problem, inv_problem.reference_model())
    return rb.fit_common_pole(channels31, (0.0, 30.0 * bound), 21)


def shifted_matrix(problem, model, pole):
    """K - pole * M(model): the matrix the cache factorizes for ``pole``."""
    return problem.K - pole * rb.assemble_M(problem, model)


def in_box(points, box):
    ok = (points[:, 0] >= box[0]) & (points[:, 0] <= box[1])
    if points.shape[1] == 2:
        ok &= (points[:, 1] >= box[2]) & (points[:, 1] <= box[3])
    return ok


@pytest.fixture(autouse=True)
def no_stray_processes():
    """Fail a test that leaves a pole worker (or any child process) alive."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"child processes left running: {left}"


@pytest.fixture
def factor_threads(monkeypatch):
    """[making thread, freeing thread] of every SuperLU factor the calling
    process makes while the fixture is active; the freeing thread stays
    None until the factor is freed.  Factors made in worker processes are
    not recorded."""
    records = []
    make = shifted._Factor.__init__

    def recording_init(self, A):
        make(self, A)
        record = [threading.get_ident(), None]
        records.append(record)
        weakref.finalize(self, lambda: record.__setitem__(1, threading.get_ident()))

    monkeypatch.setattr(shifted._Factor, "__init__", recording_init)
    return records


def assert_freed_on_the_calling_thread(records):
    """The calling process made factors and freed each of them on the
    thread that made them, the calling thread."""
    assert records, "the calling process made no factor"
    assert all(made == freed == threading.get_ident() for made, freed in records)


def calling_share(count, workers):
    """How many of ``count`` poles worker 0, the calling process, owns."""
    return len(range(0, count, workers))


def _solve_if_owned(cache, i, rhs, trans):
    return cache.solve(i, rhs, trans) if i % cache.workers == cache.rank else None


def solve_pole(cache, i, rhs, trans="N"):
    """``cache.solve(i, rhs, trans)`` run in the worker that owns pole i."""
    [row] = [row for row in cache.run(_solve_if_owned, i, rhs, trans) if row is not None]
    return row.copy()


def _held(cache):
    return np.array(sorted(cache.factors), dtype=int)


def held_poles(cache):
    """The poles with a factor in some worker of ``cache``, ascending."""
    return sorted(int(i) for held in cache.run(_held) for i in held)


def reject_first_search(monkeypatch):
    """Make the first line search evaluate one trial (evicting the current
    model's factors) and reject; later searches run normally."""
    real_search = inversion.line_search
    calls = []

    def reject_first(phi0, slope, evaluator):
        calls.append(phi0)
        if len(calls) == 1:
            evaluator(1.0)
            return rb.LineSearchResult(inversion.ETA_MIN, False, phi0, 1)
        return real_search(phi0, slope, evaluator)

    monkeypatch.setattr(inversion, "line_search", reject_first)
