"""The package runs on numpy alone; scipy is needed only by tests and the benchmark."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np

    import archtune, archtune.cli
    from archtune import LinearNetworkSystem, SimulationConfig, simulate, synthesis

    assert "scipy" not in sys.modules, "importing archtune loaded scipy"
    sys.modules["scipy"] = None                 # every later import of scipy fails

    fallbacks = []
    fixed_point = synthesis._dare_fixed_point

    def counted(*args):
        fallbacks.append(args)
        return fixed_point(*args)

    synthesis._dare_fixed_point = counted
    # both modes are unstable: no single actuator stabilizes the plant, so the
    # first greedy round sends its candidates on to value iteration
    system = LinearNetworkSystem(A=np.diag([2.0, 2.0]), actuator_pool=np.eye(2),
                                 sensor_pool=np.eye(2), W=0.01 * np.eye(2))
    trace = simulate(SimulationConfig(system=system, mode="self_tuning", feedback="state",
                                      T_sim=3, seed=0, cardinality=2))
    assert fallbacks, "no candidate reached value iteration"
    assert np.all(np.isfinite(trace.x)) and not trace.warnings
""")


def test_self_tuning_rollout_runs_with_scipy_blocked():
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert result.returncode == 0, result.stderr
