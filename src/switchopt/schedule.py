"""Substep schedule of a batch of trajectories, one chunk of steps at a time.

All members step on one grid.  A member's substeps are the intervals
between consecutive points of the grid and of its cuts: the jumps of its
mode path that lie more than 1e-15 inside their step and more than 1e-15
after the previous cut (a jump closer than that cuts nothing).  A substep
runs in the mode of the last jump up to 1e-15 after its start.  Round 0 of
a step is every member's first substep, round r the (r+1)-th substep of the
members whose path cuts it r times.  Each member draws its own increments
in its substep order, so every stream is consumed as in a serial run.
Working a chunk at a time bounds the noise buffer: a chunk holds
``chunk_steps`` draws per member, plus one per cut.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .chain import SwitchPath

CHUNK_STEPS = 256
CHUNK_BYTES = 32 * 2**20  # a chunk's draws, unless one step's alone exceed it


def chunk_steps(M: int, N: int) -> int:
    """Steps per chunk of M members of N agents: at most CHUNK_STEPS, and
    at least one, with their draws (8 M N^2 bytes a step) within CHUNK_BYTES."""
    return min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * M * N * N)))


def chunk(paths, rngs, k0, k1, h, N):
    """Channel increments Z (each scaled by the root of its substep's
    length) and substep rounds of the steps k0..k1-1 of a batch.

    ``paths`` holds each member's SwitchPath, None (mode 0) or the int mode
    it holds.  A round (t, h, mode, rows, draws, k_done) is one substep of the members
    ``rows`` (None: all) from t, of length h, in mode (each shared, or one
    per member), driven by ``Z[draws]``; k_done is k + 1 on the last round of
    step k, else 0.  A batch of one gets plain floats and ints.
    """
    M, C = len(paths), k1 - k0
    grid = np.arange(k0, k1 + 1, dtype=float) * h
    points = grid.tolist()
    cuts, slots = [], []  # the jumps that cut a step, and member * C + step of each
    for m, path in enumerate(paths):
        if isinstance(path, SwitchPath):
            lo, hi = path.times.searchsorted(grid[[0, -1]])  # the jumps in [grid[0], grid[-1])
            prev = -np.inf
            for t in path.times[lo:hi].tolist():
                i = bisect_right(points, t) - 1
                if points[i] + 1e-15 < t < points[i + 1] - 1e-15 and t > prev + 1e-15:
                    cuts.append(t)
                    slots.append(m * C + i)
                    prev = t

    # the table: one row, and one draw, per substep, member after member;
    # cut k lies after k cuts and the first substeps of slots 0..slots[k]
    slots, slot = np.array(slots, dtype=np.int64), np.arange(M * C)
    first = (slot + np.searchsorted(slots, slot)).reshape(M, C)  # row of each step's first substep
    last = (slot + np.searchsorted(slots, slot, "right")).reshape(M, C)  # and of its last
    starts = np.empty(M * C + len(cuts))
    starts[np.arange(len(cuts)) + slots + 1] = cuts
    starts[first] = grid[:-1]
    del cuts, slots, slot  # Z, drawn last, is the peak
    lengths = np.diff(starts, append=grid[-1])
    lengths[last[:, -1]] = grid[-1] - starts[last[:, -1]]
    modes = np.empty(len(starts), dtype=np.int64)
    bounds = first[:, 0].tolist() + [len(starts)]
    for path, a, b in zip(paths, bounds, bounds[1:]):
        if isinstance(path, SwitchPath):
            modes[a:b] = path.modes[np.searchsorted(path.times, starts[a:b] + 1e-15, "right") - 1]
        else:
            modes[a:b] = path or 0
    done = range(k0 + 1, k1 + 1)
    if M == 1:
        k_done = np.zeros(len(starts), dtype=np.int64)
        k_done[last[0]] = done
        rounds = list(zip(starts.tolist(), lengths.tolist(), modes.tolist(),
                          [None] * len(starts), range(len(starts)), k_done.tolist()))
    else:
        held = (modes[first] == modes[0]).all()  # one mode: index by an int
        rounds = []
        for i, (t, k, top) in enumerate(zip(points, done, (last - first).max(axis=0).tolist())):
            draws = first[:, i]
            rounds.append((t, lengths[draws], int(modes[0]) if held else modes[draws], None,
                           draws, 0 if top else k))
            for r in range(1, top + 1):
                rows = np.flatnonzero(last[:, i] >= draws + r)
                later = draws[rows] + r
                rounds.append((starts[later], lengths[later], modes[later], rows, later,
                               0 if r < top else k))

    Z = np.empty((len(starts), N, N))
    for rng, a, b in zip(rngs, bounds, bounds[1:]):
        rng.standard_normal(out=Z[a:b])
    Z *= np.sqrt(lengths)[:, None, None]
    return Z, rounds
