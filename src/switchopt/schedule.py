"""Substep schedule of a batch of trajectories, one chunk of steps at a time.

All members step on one grid; a member whose mode path jumps inside a step
splits it at the jumps, as a serial run does.  Round 0 of a step is every
member's first substep, round r the (r+1)-th substep of the members whose
path jumps r times inside it.  Each member draws its own increments in its
substep order, so every stream is consumed as in a serial run.  Working a
chunk at a time bounds the noise buffer: a chunk holds ``chunk_steps``
draws per member, plus one per jump split.
"""

from __future__ import annotations

import numpy as np

from .chain import SwitchPath

CHUNK_STEPS = 256
CHUNK_BYTES = 32 * 2**20  # a chunk's draws, unless one step's alone exceed it


def chunk_steps(M: int, N: int) -> int:
    """Steps per chunk of M members of N agents: at most CHUNK_STEPS, and
    at least one, with their draws (8 M N^2 bytes a step) within CHUNK_BYTES."""
    return min(CHUNK_STEPS, max(1, CHUNK_BYTES // (8 * M * N * N)))


def split_step(times, modes, j, cur, t_end):
    """Substeps (start, length, mode) of the step [cur, t_end) cut at the
    jumps from index j on; a jump within 1e-15 of a cut cuts nothing."""
    subs = []
    while True:
        while j < len(times) and times[j] <= cur + 1e-15:
            j += 1
        if j < len(times) and times[j] < t_end - 1e-15:
            nxt = float(times[j])
        else:
            nxt = t_end
        subs.append((cur, nxt - cur, int(modes[j - 1])))
        cur = nxt
        if cur >= t_end - 1e-15:
            return subs


def chunk(paths, rngs, k0, k1, h, N):
    """Channel increments Z (each scaled by the root of its substep's
    length) and substep rounds of the steps k0..k1-1 of a batch.

    ``paths`` holds each member's SwitchPath, None (mode 0) or the int mode
    it holds.  A round (t, h, mode, rows, draws, k_done) is one substep of the members
    ``rows`` (None: all) from t, of length h, in mode (scalars, or one per
    member), driven by ``Z[draws]``; k_done is k + 1 on the last round of
    step k, else 0.  A batch of one gets plain floats and ints.
    """
    M, C = len(paths), k1 - k0
    starts = np.arange(k0, k1, dtype=float) * h
    ends = np.arange(k0 + 1, k1 + 1, dtype=float) * h
    first_h = np.empty((M, C))
    first_h[:] = ends - starts
    first_mode = np.zeros((M, C), dtype=np.int64)
    extra = np.zeros((M, C), dtype=np.int64)
    split = [False] * C
    later = {}  # (step, round) -> [(member, start, length, mode), ...]
    after, before = starts + 1e-15, ends - 1e-15
    for m, path in enumerate(paths):
        if not isinstance(path, SwitchPath):  # None (mode 0) or a mode held
            first_mode[m] = path or 0
            continue
        times = path.times
        jp = np.searchsorted(times, after, side="right")
        first_mode[m] = path.modes[jp - 1]
        nxt = times[np.minimum(jp, len(times) - 1)]
        cut = np.flatnonzero((jp < len(times)) & (nxt < before)).tolist()
        if cut:  # split_step runs on lists: numpy scalars cost more
            times, entered = times.tolist(), path.modes.tolist()
        for i in cut:
            subs = split_step(times, entered, int(jp[i]), float(starts[i]), float(ends[i]))
            first_h[m, i] = subs[0][1]
            extra[m, i] = len(subs) - 1
            split[i] = True
            for r, sub in enumerate(subs[1:], 1):
                later.setdefault((i, r), []).append((m, *sub))

    # member m's draws fill Z[begin[m]:end[m]], one per substep in order
    counts = C + extra.sum(axis=1)
    end = np.cumsum(counts)
    begin = end - counts
    first_draw = begin[:, None] + np.arange(C) + np.cumsum(extra, axis=1) - extra
    Z = np.empty((end[-1], N, N))
    for rng, a, b in zip(rngs, begin.tolist(), end.tolist()):
        rng.standard_normal(out=Z[a:b])
    lengths = np.empty(end[-1])
    lengths[first_draw] = first_h

    if M == 1:
        hs, modes, draws = first_h[0].tolist(), first_mode[0].tolist(), first_draw[0].tolist()
    else:
        hs = [float(row[0]) if not cut else row for row, cut in zip(first_h.T.copy(), split)]
        held = (first_mode == first_mode[0, 0]).all()  # one mode: index by an int
        modes = [int(first_mode[0, 0])] * C if held else list(first_mode.T.copy())
        draws = list(first_draw.T.copy())
    rounds = []
    for i, (t, k_done) in enumerate(zip(starts.tolist(), range(k0 + 1, k1 + 1))):
        rounds.append((t, hs[i], modes[i], None, draws[i], 0 if split[i] else k_done))
        r = 1
        while (i, r) in later:
            done = 0 if (i, r + 1) in later else k_done
            if M == 1:
                (_, t_r, h_r, mode_r), = later[(i, r)]
                draw_r = draws[i] + r
            else:
                rows, t_r, h_r, mode_r = (np.array(col) for col in zip(*later[(i, r)]))
                draw_r = first_draw[rows, i] + r
            lengths[draw_r] = h_r
            rounds.append((t_r, h_r, mode_r, None if M == 1 else rows, draw_r, done))
            r += 1
    Z *= np.sqrt(lengths)[:, None, None]
    return Z, rounds
