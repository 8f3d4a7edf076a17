import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchopt.chain import (
    ChainError,
    _strongly_connected,
    occupation_fractions,
    sample_path,
    stationary,
    trajectory_seeds,
    validate_generator,
)

from conftest import SIX_MODE_Q
from oracles import mode_at, sample_path_reference


def test_validate_accepts_two_state():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    assert gen.n_modes == 2


def test_validate_rejects_bad_row_sum():
    with pytest.raises(ChainError, match="row"):
        validate_generator([[-1.0, 2.0], [1.0, -1.0]])


def test_validate_rejects_negative_rate():
    with pytest.raises(ChainError, match="negative"):
        validate_generator([[-1.0, 1.0], [-0.5, 0.5]])


def test_validate_rejects_a_matrix_of_no_modes_and_accepts_one_mode():
    with pytest.raises(ChainError, match=r"^not a generator: matrix must have at least one mode$"):
        validate_generator(np.zeros((0, 0)))
    assert validate_generator([[0.0]]).n_modes == 1


def test_validate_accepts_all_zero_but_stationary_rejects():
    gen = validate_generator([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ChainError, match="stationary"):
        stationary(gen)


def test_stationary_two_state_analytic():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    pi = stationary(gen)
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_stationary_is_a_read_only_probability_vector():
    # pi itself, from the same solve for one mode as for several
    for Q, want in (([[0.0]], [1.0]), ([[-1.0, 1.0], [1.0, -1.0]], [0.5, 0.5])):
        pi = stationary(validate_generator(Q))
        assert type(pi) is np.ndarray and pi.tolist() == want and not pi.flags.writeable


def test_stationary_symmetric_is_uniform():
    Q = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    pi = stationary(validate_generator(Q))
    assert np.allclose(pi, 1.0 / 3.0, atol=1e-14)


def test_stationary_six_mode_residual_and_occupation():
    gen = validate_generator(SIX_MODE_Q)
    dist = stationary(gen)
    assert np.max(np.abs(gen.Q.T @ dist)) <= 1e-12
    assert abs(dist.sum() - 1.0) <= 1e-14
    assert np.all(dist > 0)
    # cross-check with long-run occupation over ~1e6 jumps
    horizon = 4e5  # mean exit rate ~2.7 -> about 1.1e6 jumps
    path = sample_path(gen, 0, 1.0, horizon, seed=2024)
    assert path.n_jumps > 9e5
    occ = occupation_fractions(path)
    assert np.max(np.abs(occ - dist)) <= 1e-2


def test_stationary_reducible_rejected():
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ChainError, match="stationary"):
        stationary(validate_generator(Q))


def test_stationary_refuses_a_solve_whose_residual_is_above_tolerance():
    # rates near 1e17: the rounding of the solve leaves a residual of order 0.1
    Q = [[-1.59006331775578e17, 1.59006331775578e17],
         [3961875800513736.5, -3961875800513736.5]]
    with pytest.raises(ChainError, match=r"^stationary solve residual \S+ above tolerance$"):
        stationary(validate_generator(Q))


def _random_generators(seed):
    """Seeded generators of 1..9 modes at five rate densities, each also
    with its mode 0 made absorbing."""
    rng = np.random.default_rng(seed)
    for S in range(1, 10):
        for density in (0.1, 0.25, 0.5, 0.75, 1.0):
            for _ in range(6):
                rates = rng.exponential(size=(S, S)) * (rng.random((S, S)) < density)
                np.fill_diagonal(rates, 0.0)
                absorbing = rates.copy()
                absorbing[0] = 0.0
                for off in (rates, absorbing):
                    yield off - np.diag(off.sum(axis=1))


def test_strongly_connected_agrees_with_scipy():
    from scipy.sparse.csgraph import connected_components

    verdicts = []
    for Q in _random_generators(2026):
        n, _ = connected_components(Q > 0.0, directed=True, connection="strong")
        verdicts.append(_strongly_connected(Q))
        assert verdicts[-1] == (n == 1), Q
    assert any(verdicts) and not all(verdicts)
    assert _strongly_connected(np.zeros((1, 1)))
    assert not _strongly_connected(np.array([[0.0, 0.0], [1.0, -1.0]]))  # 0 absorbs
    assert not _strongly_connected(np.zeros((0, 0)))


def test_sample_path_large_alpha_nearly_constant():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    counts = [
        sample_path(gen, 0, 1000.0, 10.0, seed=s).n_jumps for s in range(200)
    ]
    assert np.mean(counts) < 0.05


def test_sample_path_ergodic_occupation():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    path = sample_path(gen, 0, 1.0, 1e4, seed=7)
    occ = occupation_fractions(path)
    assert occ[0] == pytest.approx(2.0 / 3.0, abs=0.01)


def test_occupation_fractions_cover_unvisited_modes():
    # mode 2 can never be entered from mode 0: its fraction is 0, not missing
    gen = validate_generator([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [1.0, 1.0, -2.0]])
    path = sample_path(gen, 0, 1.0, 50.0, seed=3)
    assert path.n_jumps > 0 and 2 not in path.modes
    occ = occupation_fractions(path)
    assert occ.shape == (3,)
    assert occ[2] == 0.0
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)


def test_mode_at_cadlag_conventions():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    path = sample_path(gen, 0, 1.0, 50.0, seed=3)
    assert mode_at(path, 0.0) == 0
    t_jump = path.times[1]
    assert mode_at(path, t_jump) == path.modes[1]  # right continuity
    assert mode_at(path, t_jump - 1e-12) == path.modes[0]
    between = 0.5 * (path.times[1] + path.times[2])
    assert mode_at(path, between) == path.modes[1]
    with pytest.raises(ChainError):
        mode_at(path, -0.1)
    with pytest.raises(ChainError):
        mode_at(path, 50.1)


@pytest.mark.parametrize("alpha, horizon, message", [
    (0.0, 1.0, "alpha"), (-1.0, 1.0, "alpha"), (float("nan"), 1.0, "alpha"),
    (1.0, 0.0, "horizon"), (1.0, float("nan"), "horizon"),
])
def test_sample_path_rejects_nonpositive_and_nan(alpha, horizon, message):
    # a nan alpha or horizon never ends the jump loop, so it must be refused
    with pytest.raises(ChainError, match=f"{message} must be positive"):
        sample_path(validate_generator(SIX_MODE_Q), 0, alpha, horizon, seed=0)


@pytest.mark.parametrize("alpha, horizon", [(1e-320, 1.0), (1.0, float("inf"))],
                         ids=["alpha-subnormal", "horizon-inf"])
def test_sample_path_rejects_an_overflowing_jump_count(alpha, horizon):
    # holding times of mean 1e-320 / 3 would grow the path without end
    with pytest.raises(ChainError, match="^the expected jump count over horizon .* overflows"):
        sample_path(validate_generator(SIX_MODE_Q), 0, alpha, horizon, seed=0)


@pytest.mark.parametrize("alpha, count", [(1e-300, "3e+300"), (2.9e-7, "1.03e+07")],
                         ids=["alpha-tiny", "just-above-the-cap"])
def test_sample_path_refuses_a_jump_count_above_the_cap(alpha, count):
    # finite holding times of mean 1e-300 / 3 fall below the resolution of t,
    # so the path would never end
    with pytest.raises(ChainError, match=re.escape(
            f"over horizon 1.0 at alpha {alpha}, {count}, overflows the cap of 10000000")):
        sample_path(validate_generator(SIX_MODE_Q), 0, alpha, 1.0, seed=0)


def test_mode_at_matches_linear_scan():
    gen = validate_generator(SIX_MODE_Q)
    path = sample_path(gen, 2, 1.0, 30.0, seed=11)
    rng = np.random.default_rng(5)
    ts = rng.uniform(0.0, 30.0, 100_000)

    def linear_scan(t):
        m = path.modes[0]
        for tk, mk in zip(path.times, path.modes):
            if tk <= t:
                m = mk
            else:
                break
        return m

    # spot-check densely; full linear scan on every query is the oracle
    for t in ts[:2000]:
        assert mode_at(path, t) == linear_scan(t)
    # vectorized equivalent of the same scan for the remaining bulk
    idx = np.searchsorted(path.times, ts, side="right") - 1
    assert all(mode_at(path, t) == path.modes[i] for t, i in zip(ts[2000:5000], idx[2000:5000]))


def test_absorbing_mode_flagged():
    gen = validate_generator([[0.0, 0.0], [1.0, -1.0]])
    path = sample_path(gen, 0, 1.0, 10.0, seed=1)
    assert path.absorbed
    assert path.n_jumps == 0
    assert mode_at(path, 9.9) == 0


def test_halving_alpha_doubles_jump_rate():
    gen = validate_generator(SIX_MODE_Q)
    horizon = 20.0
    totals = {}
    for alpha in (0.2, 0.1):
        totals[alpha] = sum(
            sample_path(gen, 0, alpha, horizon, seed=trajectory_seeds(900, k)[0]).n_jumps
            for k in range(1000)
        )
    ratio = totals[0.1] / totals[0.2]
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_sample_path_reproducible_and_strictly_increasing():
    gen = validate_generator(SIX_MODE_Q)
    p1 = sample_path(gen, 0, 0.1, 25.0, seed=123)
    p2 = sample_path(gen, 0, 0.1, 25.0, seed=123)
    assert np.array_equal(p1.times, p2.times)
    assert np.array_equal(p1.modes, p2.modes)
    assert np.all(np.diff(p1.times) > 0)
    assert np.all(p1.modes[1:] != p1.modes[:-1])


def test_trajectory_seeds_order_independent():
    a_chain, a_noise = trajectory_seeds(42, 3)
    b_chain, b_noise = trajectory_seeds(42, 3)
    assert a_chain.entropy == b_chain.entropy and a_chain.spawn_key == b_chain.spawn_key
    r1 = np.random.default_rng(a_noise).standard_normal(4)
    r2 = np.random.default_rng(b_noise).standard_normal(4)
    assert np.array_equal(r1, r2)
    # different indices decorrelate
    c_chain, _ = trajectory_seeds(42, 4)
    assert c_chain.entropy != a_chain.entropy or c_chain.spawn_key != a_chain.spawn_key


@pytest.mark.parametrize("root_seed, k", [(0, 0), (42, 3), (20260801, 19), (2**40 + 7, 12345)])
def test_trajectory_seeds_are_the_spawn_children(root_seed, k):
    children = np.random.SeedSequence([root_seed, k]).spawn(2)
    for got, want in zip(trajectory_seeds(root_seed, k), children, strict=True):
        assert got.entropy == want.entropy and got.spawn_key == want.spawn_key
        assert np.array_equal(got.generate_state(8), want.generate_state(8))
        a, b = np.random.default_rng(got), np.random.default_rng(want)
        assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
        assert np.array_equal(a.random(3), b.random(3))


# (generator, whether it has an absorbing mode)
ORACLE_GENERATORS = {
    "six-mode": (SIX_MODE_Q, False),
    "two-mode": ([[-1.0, 1.0], [2.0, -2.0]], False),
    "absorbing": ([[-1.0, 0.5, 0.5], [1.0, -1.5, 0.5], [0.0, 0.0, 0.0]], True),
}


@pytest.mark.parametrize("name", ORACLE_GENERATORS)
@pytest.mark.parametrize("alpha", [1.0, 0.1, 0.02])
def test_sample_path_bit_equal_to_the_per_call_sampler(name, alpha):
    Q, absorbing = ORACLE_GENERATORS[name]
    gen = validate_generator(Q)
    absorbed = 0
    for seed in range(20):
        path = sample_path(gen, 0, alpha, 5.0, seed)
        times, modes, was_absorbed = sample_path_reference(gen, 0, alpha, 5.0, seed)
        assert path.times.tobytes() == times.tobytes()
        assert path.modes.dtype == modes.dtype and np.array_equal(path.modes, modes)
        assert path.absorbed == was_absorbed
        absorbed += was_absorbed
    # the absorbing generator reaches its absorbing mode on some seeds
    assert (absorbed > 0) == absorbing


def test_reused_jump_tables_give_a_fresh_generator_s_paths():
    gen = validate_generator(SIX_MODE_Q)
    for seed in (3, 4):
        reused = sample_path(gen, 1, 0.1, 10.0, seed)
        fresh = sample_path(validate_generator(SIX_MODE_Q), 1, 0.1, 10.0, seed)
        assert reused.times.tobytes() == fresh.times.tobytes()
        assert np.array_equal(reused.modes, fresh.modes)


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_mode_at_property_random_queries(seed, frac):
    gen = validate_generator([[-1.0, 0.5, 0.5], [1.0, -1.5, 0.5], [2.0, 0.0, -2.0]])
    path = sample_path(gen, 0, 0.5, 10.0, seed=seed)
    t = frac * 10.0
    m = mode_at(path, t)
    k = int(np.searchsorted(path.times, t, side="right")) - 1
    assert m == path.modes[k]


@pytest.mark.parametrize("s0", [-1, 2])
def test_sample_path_refuses_an_initial_mode_outside_the_chain(s0):
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    with pytest.raises(ChainError, match=f"^initial mode {s0} outside 0..1$"):
        sample_path(gen, s0, 1.0, 1.0, seed=0)
