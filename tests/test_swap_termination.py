"""greedy_swap with an unbounded change budget on instances full of ties."""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import archtune.greedy as greedy_mod  # noqa: E402
from archtune import (  # noqa: E402
    ArchitectureConstraints,
    LinearNetworkSystem,
    greedy_swap,
    uniform_cost_parameters,
)
from archtune.network import satisfies_constraints  # noqa: E402
from archtune.simulation import draw_feasible_architecture  # noqa: E402

from conftest import random_psd  # noqa: E402

# A swap on these pools prices a few hundred candidates at most; far more
# means the outer loop is cycling.
MAX_CANDIDATES = 20_000


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4),
       M=st.integers(1, 5), L=st.integers(1, 5), budget=st.integers(1, 2),
       zero_state=st.booleans(), data=st.data())
def test_unbounded_swap_terminates_feasible(seed, n, M, L, budget, zero_state, data):
    # Ties everywhere: every pool column copies one of two directions (often
    # the same one), device rates are zero, and the estimate may be zero.
    rng = np.random.default_rng(seed)
    acts = rng.standard_normal((n, 2))[:, rng.integers(0, 2, M)]
    sens = rng.standard_normal((2, n))[rng.integers(0, 2, L)]
    system = LinearNetworkSystem(A=rng.standard_normal((n, n)), actuator_pool=acts,
                                 sensor_pool=sens, W=random_psd(rng, n), v_var=0.5)
    params = uniform_cost_parameters(n, M, L, horizon=3)
    act_min = data.draw(st.integers(0, M))
    sen_min = data.draw(st.integers(0, L))
    cons = ArchitectureConstraints(act_min, data.draw(st.integers(act_min, M)),
                                   sen_min, data.draw(st.integers(sen_min, L)),
                                   max_changes=None, max_per_subsequence=budget)
    init = draw_feasible_architecture(rng, M, L, cons)
    x_hat = np.zeros(n) if zero_state else rng.standard_normal(n)

    priced = 0
    apply_choice = greedy_mod.apply_choice

    def counted(arch, choice):
        nonlocal priced
        priced += 1
        assert priced <= MAX_CANDIDATES, "greedy_swap did not terminate"
        return apply_choice(arch, choice)

    with mock.patch.object(greedy_mod, "apply_choice", counted):
        arch, entry, gains = greedy_swap(system, init, x_hat, np.eye(n), params, cons)
    assert satisfies_constraints(arch, cons)
    assert np.isfinite(entry.total_estimated)
    assert len(gains.K) == 3 and gains.K[0].shape == (len(arch.actuators), n)
