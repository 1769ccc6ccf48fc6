"""Binding coverage of the per-layer tracer.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import importlib
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

from thetacoble import modular, quartics  # noqa: E402
from thetacoble.theta import PeriodMatrix, PhasePoint  # noqa: E402
from tracer import Tracer  # noqa: E402

# the package re-exports the function theta under the submodule's name
theta_mod = importlib.import_module("thetacoble.theta")


def fresh_tau3() -> PeriodMatrix:
    # entries no other code evaluates, so the theta-constant cache misses
    x = np.array([[0.031, -0.217, 0.113], [-0.217, 0.409, 0.071], [0.113, 0.071, -0.263]])
    y = np.array([[1.173, 0.219, -0.097], [0.219, 1.331, 0.143], [-0.097, 0.143, 1.087]])
    return PeriodMatrix(3, x + 1j * y)


def test_coble_eval_counts_every_binding():
    z = PhasePoint(3, np.array([0.13 + 0.21j, -0.07 + 0.05j, 0.29 - 0.17j]))
    with Tracer() as tracer:
        quartics.coble_eval(fresh_tau3(), z)
    m = tracer.metrics()
    # quartics.theta2 and quartics.s_vector are imported names
    assert m["quartics.coble_eval.calls"] == 1
    assert m["quartics.theta2_vector.calls"] == 1
    assert m["modular.s_vector.calls"] == 1
    assert m["theta.theta2.calls"] == 8
    # 8 second-order thetas plus the 36 even constants computed once
    assert m["theta.theta.calls"] == 44
    assert m["theta.truncation_radius.calls"] == 44
    # modular.even_theta_constants is an imported name
    assert m["modular.h_fano.calls"] == 15
    assert m["theta.even_theta_constants.calls"] == 15
    assert m["theta.even_theta_constants.hit_ratio"] == 14 / 15
    assert all(v >= 0 for k, v in m.items() if k.endswith(".self_s"))


def test_exit_restores_bindings():
    before = (quartics.theta2, quartics.s_vector, modular.even_theta_constants, theta_mod.theta)
    with Tracer():
        assert quartics.theta2 is not before[0]
    after = (quartics.theta2, quartics.s_vector, modular.even_theta_constants, theta_mod.theta)
    assert all(a is b for a, b in zip(after, before))
