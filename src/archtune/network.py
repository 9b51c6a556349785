"""Linear network systems with selectable sensor/actuator architectures.

A system is a discrete-time linear plant x(t+1) = A x(t) + B u(t) + w(t)
together with ordered pools of candidate input directions (actuators) and
candidate output rows (sensors).  An architecture is the pair of index sets
currently active in each pool; it induces the input matrix B and output
matrix C actually wired into the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._lin import check_psd

__all__ = [
    "LinearNetworkSystem",
    "ArchitectureSet",
    "ArchitectureConstraints",
    "build_input_matrix",
    "build_output_matrix",
    "indicator",
    "satisfies_constraints",
    "random_network",
    "random_network_localized",
]


def _sorted_index_tuple(indices: Iterable[int], kind: str) -> tuple[int, ...]:
    idx = tuple(sorted(int(i) for i in indices))
    if any(i < 0 for i in idx):
        raise ValueError(f"{kind} indices must be nonnegative, got {idx}")
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate {kind} indices in {idx}")
    return idx


@dataclass(frozen=True)
class ArchitectureSet:
    """Active actuator and sensor index sets, stored sorted ascending."""

    actuators: tuple[int, ...] = ()
    sensors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "actuators", _sorted_index_tuple(self.actuators, "actuator"))
        object.__setattr__(self, "sensors", _sorted_index_tuple(self.sensors, "sensor"))


@dataclass(frozen=True)
class ArchitectureConstraints:
    """Cardinality bounds plus the per-step change budgets of the tuning loop.

    max_changes is the total change budget per time step (None = unbounded);
    max_per_subsequence bounds each selection/rejection subsequence.
    """

    act_min: int
    act_max: int
    sen_min: int
    sen_max: int
    max_changes: int | None = None
    max_per_subsequence: int = 1

    def __post_init__(self) -> None:
        for lo, hi, kind in ((self.act_min, self.act_max, "actuator"),
                             (self.sen_min, self.sen_max, "sensor")):
            if not (0 <= lo <= hi):
                raise ValueError(f"need 0 <= min <= max for {kind} bounds, got [{lo}, {hi}]")
        if self.max_per_subsequence < 1:
            raise ValueError("max_per_subsequence must be >= 1")
        if self.max_changes is not None and self.max_changes < self.max_per_subsequence:
            raise ValueError("max_changes must be >= max_per_subsequence when bounded")


@dataclass(frozen=True)
class LinearNetworkSystem:
    """Plant matrix, candidate pools, and process/measurement noise levels.

    actuator_pool holds candidate input directions as columns (n x M);
    sensor_pool holds candidate output rows (L x n).  W is the process noise
    covariance; every active sensor carries independent measurement noise of
    variance v_var.
    """

    A: np.ndarray
    actuator_pool: np.ndarray
    sensor_pool: np.ndarray
    W: np.ndarray
    v_var: float = 0.0

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        act = np.asarray(self.actuator_pool, dtype=float)
        sen = np.asarray(self.sensor_pool, dtype=float)
        if act.ndim != 2 or act.shape[0] != n:
            raise ValueError(f"actuator_pool must be (n, M) with n={n}, got {act.shape}")
        if sen.ndim != 2 or sen.shape[1] != n:
            raise ValueError(f"sensor_pool must be (L, n) with n={n}, got {sen.shape}")
        W = np.asarray(self.W, dtype=float)
        if W.shape != (n, n):
            raise ValueError(f"W must be (n, n), got {W.shape}")
        check_psd(W, "W")
        if self.v_var < 0:
            raise ValueError("v_var must be nonnegative")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "actuator_pool", act)
        object.__setattr__(self, "sensor_pool", sen)
        object.__setattr__(self, "W", W)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def num_actuators(self) -> int:
        return self.actuator_pool.shape[1]

    @property
    def num_sensors(self) -> int:
        return self.sensor_pool.shape[0]


def _check_in_pool(indices: tuple[int, ...], size: int, kind: str) -> None:
    if indices and indices[-1] >= size:
        raise ValueError(f"{kind} index {indices[-1]} outside pool of size {size}")


def build_input_matrix(system: LinearNetworkSystem, arch: ArchitectureSet) -> np.ndarray:
    """Stack the active actuator columns into B, shape (n, |actuators|).

    An empty actuator set yields an (n, 0) matrix: the plant runs open loop.
    """
    _check_in_pool(arch.actuators, system.num_actuators, "actuator")
    return system.actuator_pool[:, list(arch.actuators)]


def build_output_matrix(system: LinearNetworkSystem, arch: ArchitectureSet) -> np.ndarray:
    """Stack the active sensor rows into C, shape (|sensors|, n)."""
    _check_in_pool(arch.sensors, system.num_sensors, "sensor")
    return system.sensor_pool[list(arch.sensors), :]


def indicator(arch: ArchitectureSet, kind: str, size: int) -> np.ndarray:
    """Binary activation vector of the given pool size for one device kind."""
    if kind == "actuator":
        idx = arch.actuators
    elif kind == "sensor":
        idx = arch.sensors
    else:
        raise ValueError(f"kind must be 'actuator' or 'sensor', got {kind!r}")
    _check_in_pool(idx, size, kind)
    out = np.zeros(size)
    out[list(idx)] = 1.0
    return out


def satisfies_constraints(arch: ArchitectureSet, constraints: ArchitectureConstraints) -> bool:
    """Cardinality-bounds predicate used everywhere an architecture must be feasible."""
    return (constraints.act_min <= len(arch.actuators) <= constraints.act_max
            and constraints.sen_min <= len(arch.sensors) <= constraints.sen_max)


def random_network(n: int, eig_band: float, seed,
                   W: np.ndarray | None = None, v_var: float = 0.0) -> LinearNetworkSystem:
    """Random network plant with eigenvalues clustered around the unit circle.

    A = V diag(lam) V' with V the Q factor of a standard normal matrix,
    |lam_i| ~ U[1 - eig_band, 1 + eig_band] and independent random signs.
    Stream order is fixed (V draw, then magnitudes, then signs) so a seed
    pins the system exactly.  Both pools are the canonical basis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= eig_band < 1.0):
        raise ValueError("eig_band must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    V, _ = np.linalg.qr(rng.standard_normal((n, n)))
    mags = rng.uniform(1.0 - eig_band, 1.0 + eig_band, size=n)
    signs = 2 * rng.integers(0, 2, size=n) - 1
    A = (V * (signs * mags)) @ V.T
    if W is None:
        W = np.zeros((n, n))
    return LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                               W=W, v_var=v_var)


def random_network_localized(n: int, num_unstable: int,
                             unstable_band: tuple[float, float],
                             stable_band: tuple[float, float], seed,
                             localization: float = 0.2,
                             exclude_nodes: tuple[int, ...] = (),
                             W: np.ndarray | None = None,
                             v_var: float = 0.0) -> LinearNetworkSystem:
    """Random network whose instabilities sit at specific nodes.

    num_unstable eigenvalue magnitudes are drawn from unstable_band (>= 1)
    and attached to eigenvectors concentrated near randomly chosen nodes
    (canonical directions perturbed by `localization` times a random
    direction, then orthonormalized); the remaining magnitudes come from
    stable_band with a random orthonormal completion.  Actuators placed at
    the unstable nodes couple strongly to the unstable modes while actuators
    elsewhere couple only through the perturbation, so architecture choice
    matters.  exclude_nodes keeps the instabilities away from given nodes
    (e.g. the ones a fixed benchmark architecture occupies).  Stream order:
    node draw, eigenvector perturbations, completion matrix, unstable
    magnitudes, stable magnitudes, signs.  Both pools are the canonical
    basis.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0 <= num_unstable <= n):
        raise ValueError("num_unstable must lie in [0, n]")
    if num_unstable and not (1.0 <= unstable_band[0] <= unstable_band[1]):
        raise ValueError("unstable_band must sit at or above magnitude 1")
    if not (0.0 <= stable_band[0] <= stable_band[1] < 1.0):
        raise ValueError("stable_band must sit strictly inside the unit disc")
    if localization < 0:
        raise ValueError("localization must be nonnegative")
    candidates = [i for i in range(n) if i not in set(exclude_nodes)]
    if len(candidates) < num_unstable:
        raise ValueError("not enough candidate nodes after exclusions")
    rng = np.random.default_rng(seed)
    nodes = np.asarray(candidates, dtype=int)[rng.choice(len(candidates), size=num_unstable,
                                                         replace=False)]
    U = np.eye(n)[:, nodes] + localization * rng.standard_normal((n, num_unstable)) / np.sqrt(n)
    G = rng.standard_normal((n, n - num_unstable))
    V, _ = np.linalg.qr(np.column_stack([U, G]))
    mags_u = rng.uniform(unstable_band[0], unstable_band[1], size=num_unstable)
    mags_s = rng.uniform(stable_band[0], stable_band[1], size=n - num_unstable)
    mags = np.concatenate([mags_u, mags_s])
    signs = 2 * rng.integers(0, 2, size=n) - 1
    A = (V * (signs * mags)) @ V.T
    if W is None:
        W = np.zeros((n, n))
    return LinearNetworkSystem(A=A, actuator_pool=np.eye(n), sensor_pool=np.eye(n),
                               W=W, v_var=v_var)
