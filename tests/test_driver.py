import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from saist import (
    SaistConfig,
    compute_saist,
    crosscheck_simulation,
    discretize,
    parse_config,
    simulate,
)
from saist import TrafficAbstraction, driver, quantgraph
from saist.cycle_verify import VerifyResult
from saist.cli import main as cli_main
from saist.errors import ConfigError

from test_petc import system_2d


def config_json(sigma=0.5, **extra):
    data = {
        "A": [[0.0, 1.0], [-2.0, 3.0]],
        "B": [[0.0], [1.0]],
        "K": [[0.0, -5.0]],
        "trigger": {"type": "relative_error", "sigma": sigma},
        "h": 0.05,
        "kbar": 20,
    }
    data.update(extra)
    return data


def test_parse_config_roundtrip():
    cfg = parse_config(config_json(), l_max=12, seed=3)
    assert cfg.system.n == 2
    assert cfg.system.kbar == 20
    assert cfg.l_max == 12 and cfg.seed == 3
    np.testing.assert_allclose(
        cfg.system.BK, np.array([[0.0, 0.0], [0.0, -5.0]])
    )


def test_parse_config_quadratic_trigger():
    import saist

    q = saist.relative_error_trigger(0.5, 2).tolist()
    cfg = parse_config(config_json(trigger={"type": "quadratic", "Q": q}))
    np.testing.assert_allclose(cfg.system.Qtrig, np.array(q))


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config({})
    with pytest.raises(ConfigError):
        parse_config(config_json(trigger={"type": "nope"}))
    bad = config_json()
    bad["B"] = [[1.0, 0.0]]
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_parse_config_ignores_unknown_keys():
    cfg = parse_config(config_json(budget=5, workers=2, oracle="sampling", solver_path="z3"))
    assert not hasattr(cfg, "budget")
    assert not hasattr(cfg, "oracle")
    assert not hasattr(cfg, "solver_path")


def test_compute_saist_verified_small():
    cfg = parse_config(config_json(0.5), l_max=12, seed=0)
    rep = compute_saist(cfg)
    assert rep.verified
    assert rep.saist == Fraction(6)
    assert rep.l_reached == 10
    assert rep.witness is not None
    vals = [it["value"] for it in rep.iterations]
    assert vals == sorted(vals)  # lower bounds nondecreasing in full mode


def test_bounds_only_on_tiny_budget():
    cfg = parse_config(config_json(0.2), l_max=3, seed=0)
    rep = compute_saist(cfg)
    assert not rep.verified
    assert rep.status == "BoundsOnly"
    assert rep.saist_upper is None or rep.saist_lower <= rep.saist_upper


def test_repeated_word_is_verified_once(monkeypatch):
    calls = Counter()
    verify_cycle = driver.verify_cycle

    def counting(disc, word, **kwargs):
        calls[tuple(word)] += 1
        return verify_cycle(disc, word, **kwargs)

    monkeypatch.setattr(driver, "verify_cycle", counting)
    rep = compute_saist(parse_config(config_json(0.1), l_max=6, seed=0))
    sacs = [tuple(it["sac"]) for it in rep.iterations]
    assert len(sacs) == 6 and len(set(sacs)) < len(sacs)  # the same word at several depths
    assert set(sacs) <= set(calls) and set(calls.values()) == {1}


def test_karp_runs_for_the_minimum_only_where_the_value_rises(monkeypatch):
    # each depth tries the last one's value first; Karp's recurrence runs
    # for the minimum only where that value is no longer the minimum
    karp, min_mean_cycles = quantgraph._karp_component, driver.min_mean_cycles
    per_depth, inside = [], []

    def counting_karp(*args):
        per_depth[-1] += bool(inside)
        return karp(*args)

    def counting_min_mean_cycles(*args, **kwargs):
        per_depth.append(0)
        inside.append(True)
        try:
            return min_mean_cycles(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(quantgraph, "_karp_component", counting_karp)
    monkeypatch.setattr(driver, "min_mean_cycles", counting_min_mean_cycles)
    rep = compute_saist(parse_config(config_json(0.3), l_max=30, seed=0))
    values = [it["value"] for it in rep.iterations]
    rises = [True] + [b > a for a, b in zip(values, values[1:])]
    assert rep.verified and rep.saist == Fraction(24, 7) and values == sorted(values)
    assert len(values) == 26 and sum(rises) == 4  # l = 1, 8, 9 and 26
    assert [n > 0 for n in per_depth] == rises


def test_report_json_shape_and_determinism():
    cfg = parse_config(config_json(0.5), l_max=12, seed=0)
    a = compute_saist(cfg).to_json(include_timing=False)
    b = compute_saist(parse_config(config_json(0.5), l_max=12, seed=0)).to_json(
        include_timing=False
    )
    assert a == b
    doc = json.loads(a)
    assert doc["status"] == "Verified"
    assert doc["saist_lower"] == {"num": 6, "den": 1}
    assert doc["sac"] == [6]
    assert set(doc["units"]) == {"steps", "time"}
    assert doc["units"]["time"]["saist_lower"] == pytest.approx(6 * 0.05)
    assert "wall_time" not in doc["iterations"][0]


def test_crosscheck_witness_trial():
    cfg = parse_config(config_json(0.5), l_max=12, seed=0)
    rep = compute_saist(cfg)
    diag = crosscheck_simulation(cfg, rep, trials=3, steps=2000)
    assert diag["witness_tail"] == pytest.approx(6.0)
    assert all(t >= float(rep.saist_lower) - 1e-9 for t in diag["tails"])


def test_zero_state_tail_is_kbar():
    disc = discretize(system_2d())
    traj = simulate(disc, np.zeros(2), 50)
    assert set(traj.ists) == {disc.kbar}


def test_targeted_mode_runs_on_2d():
    cfg = parse_config(config_json(0.5), l_max=12, mode="targeted", seed=0)
    rep = compute_saist(cfg)
    assert rep.verified and rep.saist == 6


def test_a_targeted_run_builds_one_cycle_matrix_per_candidate(monkeypatch):
    # no candidate of this run has two eigenvalues that meet at a power up to
    # 12, so none builds M^q for q >= 2; walking every power builds 216
    # matrices and gives the same report
    import saist.cycle_verify as cv

    builds, candidates = [], []
    cycle_matrix, verify_cycle = cv.cycle_matrix, driver.verify_cycle
    monkeypatch.setattr(cv, "cycle_matrix", lambda disc, w: builds.append(w) or cycle_matrix(disc, w))
    monkeypatch.setattr(
        driver, "verify_cycle", lambda disc, w, **kw: candidates.append(w) or verify_cycle(disc, w, **kw)
    )
    cfg = parse_config(config_json(0.5), l_max=30, mode="targeted", seed=0)
    rep = compute_saist(cfg)
    assert rep.verified and rep.saist == 6 and rep.power == 1
    assert builds == candidates and len(candidates) == 23
    builds.clear()
    monkeypatch.setattr(cv, "_meeting_powers", lambda subs: set(range(1, cv.MAX_POWER + 1)))
    every = compute_saist(cfg)
    assert len(builds) == 216
    assert every.to_json(include_timing=False) == rep.to_json(include_timing=False)


def test_cli_exit_codes(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_json(0.5)))
    rc = cli_main(["analyze", str(path), "--l-max", "12"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Verified" in out
    rc = cli_main(["analyze", str(path), "--l-max", "2"])
    assert rc == 3  # BoundsOnly
    rc = cli_main(["analyze", str(tmp_path / "missing.json")])
    assert rc == 1
    with pytest.raises(SystemExit) as usage:
        cli_main(["analyze", str(path), "--oracle", "hybrid"])
    assert usage.value.code == 2  # argparse usage error
    with pytest.raises(SystemExit) as usage:
        cli_main(["analyze", str(path), "--solver-path", "z3"])
    assert usage.value.code == 2  # the flag is gone


def test_cli_report_and_dot(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_json(0.5)))
    rep_path = tmp_path / "out.json"
    dot_path = tmp_path / "out.dot"
    rc = cli_main(
        [
            "analyze",
            str(path),
            "--l-max",
            "12",
            "--report",
            str(rep_path),
            "--dot",
            str(dot_path),
        ]
    )
    assert rc == 0
    doc = json.loads(rep_path.read_text())
    assert doc["status"] == "Verified"
    assert dot_path.read_text().startswith("digraph")


def test_kbar_one_is_verified_one():
    # the only word (1,) has a constraint-free cone: the whole state space
    cfg = parse_config(dict(config_json(0.5), kbar=1), l_max=3, seed=0)
    rep = compute_saist(cfg)
    assert rep.verified
    assert rep.saist == Fraction(1)
    assert rep.sac_word == (1,)


def test_upper_bound_skips_an_attracting_scc_of_unknown_states():
    # {(2,), (3,)} attracts with maximum mean 5/2 and {(5,)} with 5; only
    # (5,) is known feasible, so the upper bound is 5
    model = TrafficAbstraction(
        states=((2,), (3,), (5,)),
        edges=(np.array([0, 1, 2]), np.array([1, 0, 2])),  # (2,) <-> (3,), (5,) -> (5,)
        depth=1,
    )

    def run(known_feasible):
        return driver._refinement_loop(
            lambda prev, _: None if prev else model,
            lambda word: VerifyResult(False),
            1,
            1.0,
            known_feasible=known_feasible,
        )

    assert run(None).saist_upper == Fraction(5, 2)
    report = run(lambda word: word == (5,))
    assert report.saist_lower == Fraction(5, 2) and report.saist_upper == 5
