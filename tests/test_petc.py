import math
import os
import subprocess
import sys

import numpy as np
import pytest

import saist

from saist import (
    PetcSystem,
    discretize,
    kappa,
    perturb,
    relative_error_trigger,
    running_average,
    simulate,
    trace,
)
from saist.errors import ConfigError, NonFiniteMatrix, NonFiniteState
from saist.petc import _expm


def system_2d(sigma=0.5, h=0.05, kbar=20):
    A = np.array([[0.0, 1.0], [-2.0, 3.0]])
    BK = np.array([[0.0], [1.0]]) @ np.array([[0.0, -5.0]])
    return PetcSystem(A=A, BK=BK, Qtrig=relative_error_trigger(sigma, 2), h=h, kbar=kbar)


def taylor_step(A, BK, t, terms=30):
    """Independent oracle: M(t) = e^{At} + (integral of e^{As} ds) BK by series."""
    n = A.shape[0]
    expA = np.zeros((n, n))
    intA = np.zeros((n, n))
    term = np.eye(n)
    for j in range(terms):
        expA += term
        intA += term * t / (j + 1)
        term = term @ A * t / (j + 1)
    return expA + intA @ BK


def test_discretize_matches_series_oracle():
    sys = system_2d()
    disc = discretize(sys)
    for k in (1, 3, 7):
        expected = taylor_step(sys.A, sys.BK, sys.h * k)
        np.testing.assert_allclose(disc.M[k - 1], expected, rtol=1e-12, atol=1e-12)


def augmented(plant):
    """The augmented generator [[A, BK], [0, 0]] * h of a plant."""
    n = plant.n
    G = np.zeros((2 * n, 2 * n))
    G[:n, :n] = plant.A * plant.h
    G[:n, n:] = plant.BK * plant.h
    return G


def test_discretize_augmented_semigroup():
    # the augmented [[A, BK], [0, 0]] exponential is a semigroup in k, so
    # M(k1 + k2) is recoverable from the two shorter exponentials
    expm = pytest.importorskip("scipy.linalg").expm

    sys = system_2d()
    n = sys.n
    G = augmented(sys)
    disc = discretize(sys)
    E = expm(G * 3) @ expm(G * 4)
    np.testing.assert_allclose(disc.M[6], E[:n, :n] + E[:n, n:], atol=1e-12)


def test_expm_closed_forms():
    d = np.array([-3.0, 0.0, 0.5, 40.0])
    np.testing.assert_allclose(_expm(np.diag(d)), np.diag(np.exp(d)), rtol=1e-13, atol=0.0)
    J = np.diag([1.0, 1.0, 1.0], k=1)  # nilpotent: e^J = I + J + J^2/2 + J^3/6
    expected = np.array([[1, 1, 1 / 2, 1 / 6], [0, 1, 1, 1 / 2], [0, 0, 1, 1], [0, 0, 0, 1]])
    np.testing.assert_allclose(_expm(J), expected, rtol=1e-15, atol=0.0)
    for t in (0.3, 2.0, -7.5):
        R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        np.testing.assert_allclose(_expm(t * np.array([[0.0, -1.0], [1.0, 0.0]])), R, atol=1e-14)
    # each matrix of a stack has its own scaling: halving the diagonal one as
    # often as 1e6 J needs (21 times) would cost it about 1e-10
    stack = _expm(np.stack([np.diag(d), 1e6 * J]))
    np.testing.assert_allclose(stack[0], np.diag(np.exp(d)), rtol=1e-13, atol=0.0)


def test_expm_scales_past_the_exponent_range():
    # a 1-norm of 1e308 needs s = 1025 halvings; 2.0**1025 is inf, so dividing
    # by it would give Y = 0 and e^X = I
    X = np.diag([-1e308, -1e308])
    assert np.frexp(1e308)[1] + 1 > 1023
    np.testing.assert_array_equal(_expm(X), np.zeros((2, 2)))
    np.testing.assert_allclose(_expm(np.stack([X, np.zeros((2, 2))]))[1], np.eye(2))


def test_expm_matches_scipy_on_the_benchmark_plants():
    from test_acceptance import sys_2d, sys_3d, sys_jet

    expm = pytest.importorskip("scipy.linalg").expm
    for plant in (sys_2d(0.5), sys_3d(0.4), sys_jet()):  # the benchmark's three plants
        stack = augmented(plant) * np.arange(1.0, plant.kbar + 1)[:, None, None]
        ours = _expm(stack)
        for X, E in zip(stack, ours):
            ref = expm(X)
            assert np.max(np.abs(E - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_saist_runs_without_scipy():
    src = os.path.dirname(os.path.dirname(saist.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, saist\n"
        "plant = {'A': [[0.0, 1.0], [-2.0, 3.0]], 'B': [[0.0], [1.0]], 'K': [[0.0, -5.0]],\n"
        "         'trigger': {'type': 'relative_error', 'sigma': 0.5}, 'h': 0.05, 'kbar': 20}\n"
        "print(saist.compute_saist(saist.parse_config(plant, l_max=12)).status)\n"
        "print('scipy' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split()[-1] == "False"


def test_trigger_form_matches_direct_evaluation():
    sigma = 0.3
    rng = np.random.default_rng(0)
    Q = relative_error_trigger(sigma, 2)
    for _ in range(50):
        x = rng.standard_normal(2)
        xhat = rng.standard_normal(2)
        z = np.concatenate([x, xhat])
        direct = np.dot(x - xhat, x - xhat) - sigma**2 * np.dot(x, x)
        assert z @ Q @ z == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_trigger_sigma_range():
    with pytest.raises(ConfigError):
        relative_error_trigger(0.0, 2)
    with pytest.raises(ConfigError):
        relative_error_trigger(1.0, 2)


def test_kappa_matches_naive_scan():
    disc = discretize(system_2d())
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.standard_normal(2)
        k = kappa(disc, x)
        expected = disc.kbar
        for m in range(1, disc.kbar + 1):
            if x @ disc.N[m - 1] @ x > 0:
                expected = m
                break
        assert k == expected


def test_kappa_zero_state_is_kbar():
    disc = discretize(system_2d())
    assert kappa(disc, np.zeros(2)) == disc.kbar


def unit(t):
    return np.array([math.cos(t), math.sin(t)])


def boundary_states(disc, grid=64):
    """Unit states on either side of each zero of x'N(k)x, k < kbar, on the
    half circle, bisected until the two sides are adjacent floats in angle."""

    def fires(N, t):
        return unit(t) @ N @ unit(t) > 0.0

    out = []
    for N in disc.N[:-1]:
        ts = np.linspace(0.0, math.pi, grid + 1).tolist()
        for a, b in zip(ts, ts[1:]):
            if fires(N, a) == fires(N, b):
                continue
            while a < 0.5 * (a + b) < b:
                m = 0.5 * (a + b)
                a, b = (m, b) if fires(N, m) == fires(N, a) else (a, m)
            out.extend(unit(t) for t in (a, b))
    return out


def test_simulate_consistent_with_kappa():
    disc = discretize(system_2d())
    rng = np.random.default_rng(2)
    x0 = rng.standard_normal(2)
    traj = simulate(disc, x0, 50)
    x = x0.copy()
    for i in range(50):
        k = kappa(disc, x)
        assert traj.ists[i] == k
        x = disc.M[k - 1] @ x
        np.testing.assert_allclose(traj.states[i + 1], x, rtol=1e-9, atol=1e-12)
    # on the trigger boundaries kappa, simulate and trace take one scan
    disc = discretize(system_2d(sigma=0.3))
    states = boundary_states(disc)
    assert len(states) >= 20
    for x in states:
        assert kappa(disc, x) == simulate(disc, x, 1).ists[0] == trace(disc, x, 1)[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error is the only report
def test_discretize_of_an_overflowing_plant_raises():
    # M(1) = e^800 I is past the float64 range
    sys = PetcSystem(
        A=800.0 * np.eye(2), BK=np.zeros((2, 2)), Qtrig=relative_error_trigger(0.5, 2), h=1.0, kbar=3
    )
    with pytest.raises(NonFiniteMatrix, match=r"M\(1\)"):
        discretize(sys)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the typed error is the only report
def test_a_diverging_simulation_names_its_sample():
    # kbar = 1 and M(1) ~ 1e150 I: |x_2| ~ 1e300, and x_3 overflows
    sys = PetcSystem(
        A=150.0 * math.log(10.0) * np.eye(2),
        BK=np.zeros((2, 2)),
        Qtrig=relative_error_trigger(0.5, 2),
        h=1.0,
        kbar=1,
    )
    disc = discretize(sys)
    x0 = np.array([1.0, 0.0])
    assert simulate(disc, x0, 2).ists.tolist() == [1, 1]
    with pytest.raises(NonFiniteState, match="at sample 3$"):
        simulate(disc, x0, 5)
    assert trace(disc, x0, 5) == (1,) * 5  # renormalised, it stays finite


def test_non_finite_plant_data_is_rejected():
    good = system_2d()
    for bad in (np.nan, np.inf):
        for field in ("A", "BK", "Qtrig"):
            data = {f: getattr(good, f).copy() for f in ("A", "BK", "Qtrig")}
            data[field][0, 0] = bad
            with pytest.raises(ConfigError, match="finite"):
                PetcSystem(**data, h=good.h, kbar=good.kbar)
        with pytest.raises(ConfigError, match="finite"):
            PetcSystem(A=good.A, BK=good.BK, Qtrig=good.Qtrig, h=bad, kbar=good.kbar)


def test_kappa_of_a_non_finite_state_raises():
    disc = discretize(system_2d())
    for bad in (np.array([np.nan, 1.0]), np.array([np.inf, 0.0])):
        with pytest.raises(NonFiniteState):
            kappa(disc, bad)


def test_zero_steps_raise():
    disc = discretize(system_2d())
    with pytest.raises(ConfigError):
        simulate(disc, np.array([1.0, 0.0]), 0)
    with pytest.raises(ConfigError):
        trace(disc, np.array([1.0, 0.0]), 0)


def test_trace_homogeneous():
    disc = discretize(system_2d())
    x0 = np.array([0.3, -1.1])
    assert trace(disc, x0, 40) == trace(disc, 17.5 * x0, 40)


def test_running_average_prefix_means():
    disc = discretize(system_2d())
    traj = simulate(disc, np.array([1.0, 0.2]), 20)
    avgs = running_average(traj)
    assert avgs[0] == traj.ists[0]
    assert avgs[-1] == pytest.approx(np.mean(traj.ists))
    assert len(avgs) == 20


def test_perturb_norms_and_seed():
    sys = system_2d()
    p1 = perturb(sys, 1e-3, seed=7)
    p2 = perturb(sys, 1e-3, seed=7)
    np.testing.assert_array_equal(p1.A, p2.A)
    assert np.linalg.norm(p1.A - sys.A, 2) == pytest.approx(1e-3, rel=1e-9)
    assert np.linalg.norm(p1.Qtrig - sys.Qtrig, 2) == pytest.approx(1e-3, rel=1e-9)
    np.testing.assert_allclose(p1.Qtrig, p1.Qtrig.T)


def test_config_validation():
    with pytest.raises(ConfigError):
        PetcSystem(
            A=np.eye(2), BK=np.eye(3), Qtrig=np.eye(4), h=0.1, kbar=5
        )
    with pytest.raises(ConfigError):
        PetcSystem(
            A=np.eye(2), BK=np.eye(2), Qtrig=np.eye(4), h=-0.1, kbar=5
        )
