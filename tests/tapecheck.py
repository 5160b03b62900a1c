"""Tape memory accounting shared by the test suite."""

import numpy as np


def _base(a):
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape_bytes(tape) -> int:
    """Bytes of the distinct arrays a tape keeps alive.

    Every entry's inputs, output and saved array count once each by their
    base array, so row views of one stacked array count as that array.
    """
    held = {}
    for entry in tape.entries:
        arrays = [t.data for t in entry.inputs] + [entry.output.data]
        if isinstance(entry.saved, np.ndarray):
            arrays.append(entry.saved)
        for a in arrays:
            base = _base(a)
            held[id(base)] = base.nbytes
    return sum(held.values())
