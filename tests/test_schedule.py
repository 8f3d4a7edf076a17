"""The substep schedule against its step-by-step reference: every draw of
``schedule.chunk`` and every field of its rounds, type and dtype included,
bit for bit."""

import numpy as np

from switchopt import chain, schedule
from switchopt.chain import SwitchPath

from conftest import SIX_MODE_Q
from oracles import chunk_reference


def assert_same_chunk(paths, seeds, k0, k1, h, N):
    (Z, rounds), (Z_ref, rounds_ref) = (
        build(paths, [np.random.default_rng(s) for s in seeds], k0, k1, h, N)
        for build in (schedule.chunk, chunk_reference))
    assert Z.dtype == Z_ref.dtype and Z.shape == Z_ref.shape
    assert Z.tobytes() == Z_ref.tobytes()
    assert len(rounds) == len(rounds_ref)
    for got, want in zip(rounds, rounds_ref):
        for a, b in zip(got, want):
            assert type(a) is type(b)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            else:
                assert a == b
    return rounds


def edge_path(rng, k0, k1, h, horizon):
    """Jumps on grid points, within 1e-15 of them, half a step in, and in
    chains whose links lie 3e-16 to 2e-15 apart."""
    offsets = [0.0, 5e-16, -5e-16, 1e-15, -1e-15, 1.1e-15, -1.1e-15, 2e-15, -2e-15, 0.5 * h]
    links = [3e-16, 6e-16, 9e-16, 1e-15, 1.2e-15, 2e-15]
    times = []
    for _ in range(int(rng.integers(0, 12))):
        t = int(rng.integers(k0, k1 + 1)) * h + float(rng.choice(offsets))
        times.append(t)
        for _ in range(int(rng.integers(0, 4))):
            t = t + float(rng.choice(links))
            times.append(t)
    times = np.array([0.0] + sorted(t for t in times if 0.0 < t < horizon))
    return SwitchPath(times, rng.integers(0, 6, len(times)), 1.0, horizon, 6)


def test_chunk_matches_its_reference_on_random_batches():
    # 1-29 members, each a sampled path (alpha 0.5 down to 5e-4), a
    # hand-built one, None or a held mode; a fifth of the batches hold one
    # mode throughout, so round 0 indexes by an int
    gen = chain.validate_generator(SIX_MODE_Q)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        M, C, k0 = int(rng.integers(1, 30)), int(rng.integers(1, 40)), int(rng.integers(0, 300))
        h = float(rng.choice([1e-3, 2.0**-10, 0.01, 3e-4]))
        horizon = (k0 + C) * h + 1e-9
        paths = []
        for _ in range(M):
            kind = rng.integers(0, 4)
            if kind == 0:
                paths.append(chain.sample_path(gen, int(rng.integers(0, 6)),
                                               float(rng.choice([0.5, 0.02, 2e-3, 5e-4])),
                                               horizon, int(rng.integers(2**30))))
            elif kind == 1:
                paths.append(edge_path(rng, k0, k0 + C, h, horizon))
            else:
                paths.append(None if kind == 2 else int(rng.integers(0, 6)))
        if rng.random() < 0.2:
            paths = [int(rng.integers(0, 6))] * M
        seeds = rng.integers(0, 2**30, M).tolist()
        assert_same_chunk(paths, seeds, k0, k0 + C, h, int(rng.integers(1, 4)))


def test_jumps_cut_only_more_than_1e15_inside_a_step_and_after_the_last_cut():
    h = 1e-3
    times = [0.0,
             1 * h,  # on a grid point
             2 * h - 5e-16, 2 * h + 5e-16,  # within 1e-15 of a step's end, of its start
             2.5e-3, 2.5e-3 + 6e-16, 2.5e-3 + 1.2e-15]  # a chain: the middle link cuts nothing
    path = SwitchPath(np.array(times), np.arange(len(times)), 1.0, 4 * h, len(times))
    lone = assert_same_chunk([path], [7], 0, 4, h, 2)
    starts = [0.0, 1 * h, 2 * h, 2.5e-3, 2.5e-3 + 1.2e-15, 3 * h]
    assert [r[0] for r in lone] == starts
    assert [r[2] for r in lone] == [0, 1, 3, 5, 6, 6]  # the last jump within 1e-15
    assert [r[5] for r in lone] == [1, 2, 0, 0, 3, 4]
    batch = assert_same_chunk([None, path, 2], [7, 8, 9], 0, 4, h, 2)
    assert [r[3] is None for r in batch] == [True, True, True, False, False, True]
    assert [r[3].tolist() for r in batch[3:5]] == [[1], [1]]
