"""Tape and allocation memory accounting shared by the test suite."""

import tracemalloc

import numpy as np

from pointtree import autodiff as ad


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def stored(tensor):
    """The array a tensor keeps alive, read without building anything.

    A `Gathered` tensor, a gathered Stack among them, keeps its input's
    rows; reading its `data` would gather a fresh array on every read,
    which nothing holds.
    """
    return tensor.rows if isinstance(tensor, ad.Gathered) else tensor.data


def stored_arrays(tape) -> list:
    """Every array the tape's entries keep: inputs, outputs, saved arrays."""
    arrays = []
    for entry in tape.entries:
        arrays += [stored(t) for t in (*entry.inputs, entry.output)]
        if isinstance(entry.saved, np.ndarray):
            arrays.append(entry.saved)
    return arrays


def tape_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape keeps alive.

    Every entry's inputs, output and saved array count once each by their
    base array, so row views of one stacked array count as that array, and
    a gathered output counts as the rows it was gathered from.
    """
    held = {id(_base(a)): _base(a).nbytes for a in stored_arrays(tape)}
    return sum(held.values())


def _traced(fn):
    # (fn(), bytes held above the start once fn returned, peak above the start)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, held - base, peak - base


def traced_peak(fn):
    """(fn(), the most bytes allocated above the starting point while fn ran).

    Counted by tracemalloc, which sees NumPy's array buffers as well as
    Python objects; tracing starts and stops here unless it is already on.
    """
    result, _, peak = _traced(fn)
    return result, peak


def traced_held(fn):
    """(fn(), the bytes still allocated above the starting point once fn returned).

    Counted as `traced_peak` counts: what fn's result keeps alive, and
    anything else fn left behind.
    """
    result, held, _ = _traced(fn)
    return result, held
