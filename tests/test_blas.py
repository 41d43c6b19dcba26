"""The one-thread BLAS pin: set inside every experiment, restored after it."""
import sys
import threading

import pytest

from fedsim import _blas, federation
from fedsim.aggregation import AggregationStrategy
from fedsim.cli import EXIT_OK, main
from fedsim.federation import ExperimentConfig, run_experiment
from fedsim.nn import TrainConfig
from fedsim.synth import resolve_synthetic

pytestmark = pytest.mark.skipif(_blas.blas_library() is None,
                                reason="no OpenBLAS thread setter found")


@pytest.fixture
def two_blas_threads():
    """Start from 2 threads, so a pin that is not undone shows even on a 1-CPU host."""
    set_threads = _blas._openblas()[1]
    before = _blas.blas_threads()
    set_threads(2)
    yield 2
    set_threads(before)


def test_experiment_trains_on_one_thread_and_restores_the_count(two_blas_threads,
                                                                 monkeypatch):
    seen, real = [], federation.run_round

    def run_round(*args, **kwargs):
        seen.append(_blas.blas_threads())
        return real(*args, **kwargs)

    monkeypatch.setattr(federation, "run_round", run_round)
    cfg = ExperimentConfig(dataset="synth-small", n_clients=2, n_rounds=2, repeats=2,
                           strategy=AggregationStrategy.FEDAVG,
                           train=TrainConfig(local_epochs=1), hidden_dims=(4,))
    run_experiment(cfg, resolve_synthetic("synth-small"))
    assert seen == [1, 1, 1, 1]
    assert _blas.blas_threads() == two_blas_threads


def test_threaded_grid_restores_the_count(two_blas_threads, tmp_path):
    assert main(["run", "--dataset", "synth-small", "--clients", "2,3", "--rounds", "1",
                 "--repeats", "1", "--local-epochs", "1", "--threads", "2",
                 "--out", str(tmp_path)]) == EXIT_OK
    assert _blas.blas_threads() == two_blas_threads


def test_overlapping_scopes_share_one_pin(two_blas_threads):
    first, second = _blas.one_blas_thread(), _blas.one_blas_thread()
    assert first.__enter__() == 1
    assert second.__enter__() == 1
    first.__exit__(None, None, None)  # the other scope still holds the pin
    assert _blas.blas_threads() == 1
    second.__exit__(None, None, None)
    assert _blas.blas_threads() == two_blas_threads


def test_count_is_restored_when_the_body_raises(two_blas_threads):
    with pytest.raises(RuntimeError):
        with _blas.one_blas_thread():
            raise RuntimeError("cell failed")
    assert _blas.blas_threads() == two_blas_threads


def test_concurrent_scopes_never_unpin_each_other(two_blas_threads):
    # A lost update of the scope count would restore the count while another
    # scope is still open, or leave it pinned after the last one closed.
    unpinned = []
    start = threading.Barrier(8)

    def enter_and_leave():
        start.wait(timeout=60)
        for _ in range(5000):
            with _blas.one_blas_thread():
                if _blas.blas_threads() != 1:
                    unpinned.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter_and_leave) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert not unpinned
    assert _blas.blas_threads() == two_blas_threads
