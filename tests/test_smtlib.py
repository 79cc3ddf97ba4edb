import os
import stat
import textwrap

import numpy as np
import pytest

from saist import ConeSystem, QuadConstraint, Sense
from saist.errors import ConfigError, SolverError
from saist.smtlib import SolverClient, emit_smtlib, parse_model


def unit_cone():
    return ConeSystem(
        word=(1,),
        constraints=(
            QuadConstraint(np.diag([1.0, -1.0]), Sense.STRICT_POSITIVE),
            QuadConstraint(np.array([[0.0, 0.5], [0.5, 0.0]]), Sense.NON_POSITIVE),
        ),
    )


def test_emit_deterministic_and_wellformed():
    a = emit_smtlib(unit_cone())
    b = emit_smtlib(unit_cone())
    assert a == b
    assert a.startswith("(set-logic QF_NRA)")
    assert "(declare-const x0 Real)" in a
    assert "(check-sat)" in a and "(get-model)" in a
    assert a.count("(assert") == 3  # two atoms plus the unit-norm side condition


def test_emit_digits_guard():
    with pytest.raises(ConfigError):
        emit_smtlib(unit_cone(), digits=3)


def test_emit_no_scientific_notation():
    c = ConeSystem(
        word=(1,),
        constraints=(QuadConstraint(np.diag([1e-9, 2e8]), Sense.STRICT_POSITIVE),),
    )
    text = emit_smtlib(c)
    for tok in text.replace("(", " ").replace(")", " ").split():
        if tok[0].isdigit():
            assert "e" not in tok and "E" not in tok
            float(tok)  # plain positional decimal


def test_parse_model_forms():
    reply = """
    (model
      (define-fun x0 () Real (/ 1 2))
      (define-fun x1 () Real (- (/ 866 1000)))
    )
    """
    got = parse_model(reply, 2)
    np.testing.assert_allclose(got, [0.5, -0.866])


def test_parse_model_missing_coordinate():
    with pytest.raises(SolverError):
        parse_model("(model (define-fun x0 () Real 1.0))", 2)


def write_stub(path, body):
    with open(path, "w") as f:
        f.write("#!/usr/bin/env python3\n" + textwrap.dedent(body))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)


def test_client_round_trip_sat(tmp_path):
    stub = tmp_path / "stub_solver"
    write_stub(
        stub,
        """
        import sys
        script = sys.stdin.read()
        assert "(check-sat)" in script
        print("sat")
        print("(model (define-fun x0 () Real 1.0) (define-fun x1 () Real 0.0))")
        """,
    )
    reply, witness = SolverClient(str(stub)).check(unit_cone())
    assert reply == "sat"
    np.testing.assert_allclose(witness, [1.0, 0.0])


def test_client_unsat_and_unknown(tmp_path):
    for verdict in ("unsat", "unknown"):
        stub = tmp_path / f"stub_{verdict}"
        write_stub(stub, f"print({verdict!r})\n")
        reply, witness = SolverClient(str(stub)).check(unit_cone())
        assert reply == verdict and witness is None


def test_client_malformed_output(tmp_path):
    stub = tmp_path / "stub_bad"
    write_stub(stub, "print('segfault imminent')\n")
    with pytest.raises(SolverError):
        SolverClient(str(stub)).check(unit_cone())


def test_client_missing_binary():
    with pytest.raises(SolverError):
        SolverClient("/nonexistent/solver-binary").check(unit_cone())


def test_client_feeds_oracle(tmp_path):
    # end to end: the oracle escalates to the external process and accepts
    # its witness
    from saist import ConeOracle, discretize

    from test_petc import system_2d

    stub = tmp_path / "stub_unsat"
    write_stub(stub, "print('unsat')\n")
    disc = discretize(system_2d())
    oracle = ConeOracle(disc, engine=SolverClient(str(stub)), pool_size=4)
    empty = ConeSystem(
        word=(1,), constraints=(QuadConstraint(-np.eye(2), Sense.STRICT_POSITIVE),)
    )
    v = oracle.feasible(empty)
    assert not v.maybe_feasible
    assert oracle.stats["engine_calls"] == 1
