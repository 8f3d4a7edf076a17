import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchopt.chain import (
    ChainError,
    mode_at,
    occupation_fractions,
    sample_path,
    stationary,
    trajectory_seeds,
    validate_generator,
)

from conftest import SIX_MODE_Q


def test_validate_accepts_two_state():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    assert gen.n_modes == 2


def test_validate_rejects_bad_row_sum():
    with pytest.raises(ChainError, match="row"):
        validate_generator([[-1.0, 2.0], [1.0, -1.0]])


def test_validate_rejects_negative_rate():
    with pytest.raises(ChainError, match="negative"):
        validate_generator([[-1.0, 1.0], [-0.5, 0.5]])


def test_validate_accepts_all_zero_but_stationary_rejects():
    gen = validate_generator([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ChainError, match="stationary"):
        stationary(gen)


def test_stationary_two_state_analytic():
    gen = validate_generator([[-1.0, 1.0], [2.0, -2.0]])
    pi = stationary(gen).pi
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_stationary_symmetric_is_uniform():
    Q = np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]])
    pi = stationary(validate_generator(Q)).pi
    assert np.allclose(pi, 1.0 / 3.0, atol=1e-14)


def test_stationary_six_mode_residual_and_occupation():
    gen = validate_generator(SIX_MODE_Q)
    dist = stationary(gen)
    assert np.max(np.abs(gen.Q.T @ dist.pi)) <= 1e-12
    assert abs(dist.pi.sum() - 1.0) <= 1e-14
    assert np.all(dist.pi > 0)
    # cross-check with long-run occupation over ~1e6 jumps
    horizon = 4e5  # mean exit rate ~2.7 -> about 1.1e6 jumps
    path = sample_path(gen, 0, 1.0, horizon, seed=2024)
    assert path.n_jumps > 9e5
    occ = occupation_fractions(path)
    assert np.max(np.abs(occ - dist.pi)) <= 1e-2


def test_stationary_reducible_rejected():
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ChainError, match="stationary"):
        stationary(validate_generator(Q))


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


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=40, deadline=None)
def test_mode_at_property_random_queries(seed, frac):
    gen = validate_generator([[-1.0, 0.5, 0.5], [1.0, -1.5, 0.5], [2.0, 0.0, -2.0]])
    path = sample_path(gen, 0, 0.5, 10.0, seed=seed)
    t = frac * 10.0
    m = mode_at(path, t)
    k = int(np.searchsorted(path.times, t, side="right")) - 1
    assert m == path.modes[k]
