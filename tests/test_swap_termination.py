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
    ArchitectureSet,
    LinearNetworkSystem,
    greedy_swap,
    uniform_cost_parameters,
)
from archtune.network import satisfies_constraints  # noqa: E402
from archtune.simulation import draw_feasible_architecture  # noqa: E402

from conftest import random_psd  # noqa: E402

# (actuators, sensors) pairs passed to the swap's evaluate in one call: the
# most any of the 300 examples below prices is 100, so twice that means the
# outer loop is cycling.
MAX_PAIRS = 200


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
    factory = greedy_mod._swap_metric_factory

    def counted_factory(*args):
        evaluate = factory(*args)

        def counted(pairs):
            nonlocal priced
            priced += len(pairs)
            assert priced <= MAX_PAIRS, "greedy_swap did not terminate"
            return evaluate(pairs)
        return counted

    with mock.patch.object(greedy_mod, "_swap_metric_factory", counted_factory):
        arch, entry, gains = greedy_swap(system, init, x_hat, np.eye(n), params, cons)
    assert satisfies_constraints(arch, cons)
    assert np.isfinite(entry.total_estimated)
    assert len(gains.K) == 3 and gains.K[0].shape == (len(arch.actuators), n)


def test_cycling_passes_end_at_the_guard():
    # passes that alternate between two feasible architectures never make a
    # pass with no net change; the swap stops at the first repeated pass end
    rng = np.random.default_rng(0)
    system = LinearNetworkSystem(A=rng.standard_normal((2, 2)), actuator_pool=np.eye(2),
                                 sensor_pool=np.eye(2), W=np.eye(2), v_var=0.5)
    params = uniform_cost_parameters(2, 2, 2, horizon=3)
    cons = ArchitectureConstraints(1, 1, 1, 1, max_changes=None, max_per_subsequence=1)
    a, b = ArchitectureSet((0,), (0,)), ArchitectureSet((1,), (1,))
    calls = 0

    def alternate(evaluate, rule, arch, *args):
        nonlocal calls
        calls += 1
        assert calls <= 20, "greedy_swap did not terminate"
        if rule is greedy_mod.selection_choices:
            return b if arch == a else a
        return arch

    with mock.patch.object(greedy_mod, "_forced_subsequence", alternate):
        arch, entry, gains = greedy_swap(system, a, np.ones(2), np.eye(2), params, cons)
    assert calls == 4                   # a -> b, then b -> a, where the first pass began
    assert arch == a and satisfies_constraints(arch, cons)
    assert np.isfinite(entry.total_estimated)
