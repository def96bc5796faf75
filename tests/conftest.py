import tracemalloc

import numpy as np
import pytest

from evrecon.events import EventStream
from evrecon.frames import EventFrameStack
from evrecon.siren import init_siren


@pytest.fixture
def toy_model():
    """Small network with a 4x4 output frame over t in [0, 1]."""
    return init_siren([1, 8, 8, 8, 16], omega0=30.0, seed=3, height=4, width=4,
                      t_domain=(0.0, 1.0))


@pytest.fixture
def toy_stack():
    rng = np.random.default_rng(11)
    T = 6
    counts = rng.integers(-3, 4, size=(T, 4, 4)).astype(np.float64)
    edges = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, T - 1)), [1.0]])
    return EventFrameStack(counts, edges, threshold_C=0.5)


def make_stream(t, x, y, p, width=None, height=None, t_start=None, t_end=None):
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    p = np.asarray(p, dtype=np.int64)
    return EventStream(
        t=t,
        x=x,
        y=y,
        polarity=p,
        width=width if width is not None else (int(x.max()) + 1 if len(x) else 1),
        height=height if height is not None else (int(y.max()) + 1 if len(y) else 1),
        t_start=t_start if t_start is not None else float(t[0]),
        t_end=t_end if t_end is not None else float(t[-1]),
    )


def traced_peak(fn, *args):
    """(result, peak bytes traced while fn ran); the arguments were made
    before tracing started, so only fn's allocations count."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak
