"""BLAS held at one thread while ``predict`` runs, and the worker thread
that draws the sampler's next noise field: every byte and every stream
state as when each field is drawn on the calling thread."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import pixelboost as pb
from pixelboost import NumericError, _threads, denoiser
from pixelboost.noise import STREAM_DATASET, STREAM_SAMPLER

ROOT = Path(__file__).resolve().parents[1]
BENCH_CHECKPOINT = ROOT / "bench" / "data" / "conv2_toy_seed0.pxbk"


class _Plain:
    """An RngStream behind a plain object, which the chain draws from inline."""

    def __init__(self, rng):
        self.rng = rng

    def standard_normal(self, shape):
        return self.rng.standard_normal(shape)


@pytest.fixture
def worker(monkeypatch):
    """A BLAS of two threads for predict's hold to lower, so that the chain
    draws ahead on any host; yields the list of the worker's draws."""
    threads = [2]
    monkeypatch.setattr(_threads, "_blas", (lambda: threads[-1], threads.append))
    calls = []
    submit = ThreadPoolExecutor.submit

    def counted(pool, fn, *args, **kwargs):
        calls.append(fn)
        return submit(pool, fn, *args, **kwargs)
    monkeypatch.setattr(ThreadPoolExecutor, "submit", counted)
    yield calls
    assert threads[-1] == 2  # restored


def _state(rng):
    return repr(rng.bit_generator.state)


def _chain(shape, rng, denoise=None, keep_trajectory=False):
    ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
    hr = pb.synth_dataset("mixed", 1, max(shape), pb.RngStream(0, STREAM_DATASET))[0]
    y0_up = pb.make_lr_pair(hr).lr_up[:shape[0], :shape[1]]
    return pb.reverse_sample(y0_up, denoise or pb.as_denoiser(ckpt), ckpt.config(0),
                             rng, keep_trajectory)


def _sampler(seed=0):
    return pb.RngStream(seed, STREAM_SAMPLER)


@pytest.mark.parametrize("shape", [(256, 256), (512, 512), (260, 300)])
def test_chain_matches_inline_draws(worker, shape):
    ahead, inline = _sampler(), _sampler()
    running = threading.active_count()
    out, _ = _chain(shape, ahead)
    # every field but x_T's is drawn ahead, and one more, at t = 1, given back
    assert len(worker) == 15
    assert threading.active_count() == running  # the worker has ended
    ref, _ = _chain(shape, _Plain(inline))
    assert len(worker) == 15
    np.testing.assert_array_equal(out, ref)
    assert _state(ahead) == _state(inline)


def test_trajectory_frames_match_and_are_distinct(worker):
    ahead, inline = (_chain((256, 256), rng, keep_trajectory=True)[1]
                     for rng in (_sampler(1), _Plain(_sampler(1))))
    assert len(ahead) == len(inline) == 16
    for a, b in zip(ahead, inline):
        np.testing.assert_array_equal(a, b)
    assert len({id(f) for f in ahead}) == 16
    assert not any(np.shares_memory(a, b) for i, a in enumerate(ahead)
                   for b in ahead[i + 1:])


def test_chain_never_writes_into_the_prediction_or_a_past_state(worker):
    seen = []

    def denoise(x_t, y0_up, t):
        seen.append((np.full_like(x_t, 0.25), x_t, x_t.copy()))
        return seen[-1][0]
    _chain((256, 256), _sampler(), denoise)
    for prediction, x_t, as_seen in seen:
        assert np.all(prediction == 0.25)
        np.testing.assert_array_equal(x_t, as_seen)


def _raise_at_7(x_t, y0_up, t):
    if t == 7:
        raise RuntimeError(f"denoiser failed at t={t}")
    return 0.5 * x_t + 0.5 * y0_up


def _nan_at_9(x_t, y0_up, t):
    return np.full_like(x_t, np.nan) if t == 9 else y0_up


@pytest.mark.parametrize("denoise,error", [(_raise_at_7, RuntimeError),
                                           (_nan_at_9, NumericError)])
def test_failing_chain_leaves_the_stream_as_inline(worker, denoise, error):
    ahead, inline = _sampler(3), _sampler(3)
    with pytest.raises(error) as got:
        _chain((256, 256), ahead, denoise)
    assert worker  # so a field drawn ahead was in flight when it stopped
    with pytest.raises(error) as want:
        _chain((256, 256), _Plain(inline), denoise)
    assert str(got.value) == str(want.value)
    assert _state(ahead) == _state(inline)


def test_small_chain_stays_on_the_calling_thread(worker):
    _chain((64, 64), _sampler())
    assert worker == []


def test_chain_draws_inline_without_a_spare_blas_thread(worker, monkeypatch):
    monkeypatch.setattr(_threads, "_blas", (lambda: 1, lambda n: None))
    _chain((256, 256), _sampler())
    assert worker == []


def test_chain_holds_no_blas_thread_count_around_other_denoisers(worker):
    # only predict's own forward runs under the hold
    seen = []

    def denoise(x_t, y0_up, t):
        seen.append(_threads._blas[0]())
        return y0_up
    _chain((256, 256), _sampler(), denoise)
    assert seen == [2] * 15 and len(worker) == 15


def test_two_chains_at_once_give_their_serial_bytes():
    serial = [_chain((256, 256), _sampler(seed))[0] for seed in (4, 5)]
    blas = _threads._blas_functions()
    before = blas[0]() if blas else None
    out = [None, None]

    def run(k):
        out[k] = _chain((256, 256), _sampler(4 + k))[0]
    threads = [threading.Thread(target=run, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(out, serial):
        np.testing.assert_array_equal(got, want)
    assert (blas[0]() if blas else None) == before


def test_pin_holds_one_thread_while_any_entrant_is_inside(monkeypatch):
    # more entrants than cores, switching threads as often as they can: a
    # lost update of the entrant count would restore the count mid-hold or
    # leave it at one
    threads = [4]
    monkeypatch.setattr(_threads, "_blas", (lambda: threads[-1], threads.append))
    inside = []

    def enter(n):
        for _ in range(n):
            with _threads.one_blas_thread():
                inside.append(threads[-1])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=enter, args=(2000,)) for _ in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(inside) == 12000 and set(inside) == {1}
    assert (threads[-1], _threads._held) == (4, 0)


@pytest.fixture
def two_blas_threads():
    blas = _threads._blas_functions()
    if not blas:
        pytest.skip("numpy's BLAS exposes no thread count")
    before = blas[0]()
    blas[1](2)
    yield blas
    blas[1](before)


def test_predict_holds_one_blas_thread_and_restores_the_count(two_blas_threads,
                                                              monkeypatch):
    get = two_blas_threads[0]
    seen = []
    forward = denoiser._forward_tiled

    def spy(*args):
        seen.append(get())
        return forward(*args)
    monkeypatch.setattr(denoiser, "_forward_tiled", spy)
    ckpt = pb.load_checkpoint(BENCH_CHECKPOINT)
    x = np.full((16, 16, 1), 0.5)
    pb.predict(ckpt, x, x, 8)
    assert (seen, get()) == ([1], 2)


def test_predict_restores_the_count_when_it_raises(two_blas_threads, monkeypatch):
    def fail(*args):
        raise MemoryError("forward failed")
    monkeypatch.setattr(denoiser, "_forward_tiled", fail)
    x = np.full((16, 16, 1), 0.5)
    with pytest.raises(MemoryError, match="forward failed"):
        pb.predict(pb.load_checkpoint(BENCH_CHECKPOINT), x, x, 8)
    assert two_blas_threads[0]() == 2


def test_import_starts_no_thread_and_imports_no_executor():
    code = ("import sys, threading, pixelboost; "
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", "False"]
