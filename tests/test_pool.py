import gc
import sys
import threading

import pytest

import rbainv as rb
from rbainv import shifted
from rbainv.pool import PoleWorkerPool, default_worker_count, parse_worker_count


def _worker_threads() -> set:
    return {t for t in threading.enumerate() if t.name.startswith("rbainv-worker")}


def test_shifted_exports_the_same_pool_class():
    assert shifted.PoleWorkerPool is PoleWorkerPool
    assert rb.PoleWorkerPool is PoleWorkerPool
    assert "map_poles" in vars(shifted.PoleWorkerPool)
    # the package exports the pool from rbainv.pool only
    assert not {"PoleWorkerPool", "default_worker_count"} & set(shifted.__all__)


def test_results_in_index_order_and_subsets_ascending():
    with PoleWorkerPool(3) as pool:
        runs = {}

        def fn(i):
            runs.setdefault(threading.get_ident(), []).append(i)
            return i * i

        assert pool.map_poles(fn, 10) == [i * i for i in range(10)]
    # subset 0 runs on the calling thread; each subset {i : i mod 3 == p}
    # runs in ascending order, and a thread runs whole subsets
    assert runs[threading.get_ident()] == [0, 3, 6, 9]
    for done in runs.values():
        for p in {i % 3 for i in done}:
            assert [i for i in done if i % 3 == p] == list(range(p, 10, 3))


def test_unclosed_pool_threads_end_when_it_is_collected():
    before = _worker_threads()
    pool = PoleWorkerPool(2)
    assert pool.map_poles(lambda i: i, 4) == [0, 1, 2, 3]
    started = _worker_threads() - before
    assert len(started) == 1
    del pool
    gc.collect()
    for thread in started:
        thread.join(10)
    assert _worker_threads() == before


@pytest.mark.parametrize("W", [0, -1])
def test_worker_count_below_one_rejected(W):
    with pytest.raises(ValueError, match="worker count"):
        PoleWorkerPool(W)


def test_threads_reused_across_calls():
    before = _worker_threads()
    with PoleWorkerPool(2) as pool:
        seen = []
        for _ in range(5):
            seen.append(set(pool.map_poles(lambda i: threading.get_ident(), 4)))
        assert all(s == seen[0] for s in seen)
        assert len(_worker_threads() - before) == 1
    assert _worker_threads() == before


def test_never_more_threads_than_tasks():
    before = set(threading.enumerate())
    pool = PoleWorkerPool(64)
    try:
        assert pool.map_poles(lambda i: i, 3) == [0, 1, 2]
        assert len(set(threading.enumerate()) - before) <= 3
    finally:
        pool.close()
    assert set(threading.enumerate()) <= before


def test_single_worker_starts_no_thread():
    before = set(threading.enumerate())
    assert PoleWorkerPool(1).map_poles(lambda i: -i, 4) == [0, -1, -2, -3]
    assert set(threading.enumerate()) == before


def test_worker_error_propagates_after_all_subsets_finish():
    done = []

    def fn(i):
        if i == 1:
            raise ValueError("pole 1")
        done.append(i)
        return i

    with PoleWorkerPool(2) as pool:
        with pytest.raises(ValueError, match="pole 1"):
            pool.map_poles(fn, 6)
        assert sorted(done) == [0, 2, 4]
        assert pool.map_poles(lambda i: i, 2) == [0, 1]


def test_closed_pool_restarts_on_use():
    pool = PoleWorkerPool(2)
    pool.close()
    assert pool.map_poles(lambda i: i + 1, 3) == [1, 2, 3]
    pool.close()
    pool.close()


@pytest.mark.parametrize("text,value", [("1", 1), ("8", 8), (" 2 ", 2)])
def test_parse_worker_count_accepts(text, value):
    assert parse_worker_count(text) == value


@pytest.mark.parametrize("text", ["", "abc", "0", "-1", "2.5", "1e3", "+2"])
def test_parse_worker_count_rejects(text):
    with pytest.raises(ValueError):
        parse_worker_count(text)


def test_default_worker_count_names_the_variable(monkeypatch):
    monkeypatch.delenv("RBAINV_WORKERS", raising=False)
    assert default_worker_count() == 1
    monkeypatch.setenv("RBAINV_WORKERS", "3")
    assert default_worker_count() == 3
    monkeypatch.setenv("RBAINV_WORKERS", "abc")
    with pytest.raises(ValueError, match="RBAINV_WORKERS"):
        default_worker_count()


def test_stress_more_workers_than_cores():
    outcome = {}

    def run():
        with PoleWorkerPool(8) as pool:
            outcome["results"] = [pool.map_poles(lambda i: (i, sum(range(i % 50))), 500)
                                  for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    expected = [(i, sum(range(i % 50))) for i in range(500)]
    assert outcome["results"] == [expected] * 20
