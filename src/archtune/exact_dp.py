"""Exact finite-horizon DP over joint architecture and control policies.

For the state-feedback linear-quadratic case the cost-to-go at each stage is
the pointwise minimum of finitely many quadratics x'Px + q, one lineage per
architecture sequence.  dp_backward enumerates the pieces exactly (optional
dominance pruning); brute_force_value scores every architecture sequence
directly and is the independence oracle the DP is tested against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ._lin import check_psd, check_symmetric
from .costs import input_cost_block
from .network import LinearNetworkSystem
from .synthesis import riccati_step

__all__ = [
    "QuadraticPiece",
    "PiecewiseQuadratic",
    "architecture_subsets",
    "dp_backward",
    "evaluate",
    "brute_force_value",
]

PIECE_GUARD = 1_000_000
SEQUENCE_GUARD = 100_000


@dataclass(frozen=True)
class QuadraticPiece:
    """One quadratic x'Px + q; provenance is the architecture index chosen
    at this stage (None for the terminal piece, where nothing is chosen)."""

    P: np.ndarray
    q: float
    provenance: int | None = None


@dataclass(frozen=True)
class PiecewiseQuadratic:
    """Pointwise minimum of quadratic pieces; the DP value at one stage."""

    pieces: tuple[QuadraticPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ValueError("a piecewise-quadratic needs at least one piece")
        object.__setattr__(self, "pieces", tuple(self.pieces))


def architecture_subsets(M: int, K_cardinality: int) -> list[tuple[int, ...]]:
    """All K-subsets of the actuator pool in lexicographic order (stable provenance)."""
    return list(itertools.combinations(range(M), K_cardinality))


def dp_backward(system: LinearNetworkSystem, Q: np.ndarray, R, Q_T: np.ndarray,
                W: np.ndarray, T: int, K_cardinality: int,
                prune: bool = False) -> list[PiecewiseQuadratic]:
    """Exact cost-to-go functions J_t for t = 0..T, newest stage first in time.

    J_T is the single piece (Q_T, 0).  Each backward step expands every piece
    (P+, q+) through every K-subset architecture B, in one stacked
    riccati_step per architecture:
    P' = A'P+A + Q - A'P+B (B'P+B + R)^{-1} B'P+A, q' = q+ + trace(P+ W).
    Refuses instances whose piece count would exceed the guard.  Dominance
    pruning (off by default) drops a piece when an earlier or mutually
    non-dominated piece is at least as good everywhere.
    """
    check_psd(Q, "Q")
    check_psd(Q_T, "Q_T")
    check_psd(W, "W")
    if T < 0:
        raise ValueError("horizon must be nonnegative")
    A = system.A
    archs = architecture_subsets(system.num_actuators, K_cardinality)
    B_mats = [system.actuator_pool[:, list(s)] for s in archs]
    R_blocks = [input_cost_block(R, s) for s in archs]
    for Rb in R_blocks:
        check_symmetric(Rb, "R block")
    terminal = PiecewiseQuadratic((QuadraticPiece(P=np.asarray(Q_T, dtype=float), q=0.0),))
    stages = [terminal]
    current = terminal
    for _ in range(T):
        if len(current.pieces) * len(archs) > PIECE_GUARD:
            raise ValueError(f"piece count would exceed {PIECE_GUARD}; instance too large")
        P_next = np.stack([piece.P for piece in current.pieces])
        # q' = q+ + trace(P+ W), the same for every architecture
        q_new = [piece.q + float(np.sum(piece.P * W)) for piece in current.pieces]
        new_pieces = []
        for a_idx, (B, Rb) in enumerate(zip(B_mats, R_blocks)):
            _, P_new = riccati_step(A, B, Q, Rb, P_next, check=False)
            new_pieces += [QuadraticPiece(P=P, q=q, provenance=a_idx)
                           for P, q in zip(P_new, q_new)]
        if prune:
            new_pieces = _dominance_prune(new_pieces)
        current = PiecewiseQuadratic(tuple(new_pieces))
        stages.append(current)
    stages.reverse()
    return stages


def _dominance_prune(pieces: list[QuadraticPiece], tol: float = 1e-12) -> list[QuadraticPiece]:
    """Drop pieces another piece beats everywhere; identical pieces keep the
    lowest index."""
    def dominates(a: QuadraticPiece, b: QuadraticPiece) -> bool:
        if a.q > b.q + tol:
            return False
        return float(np.linalg.eigvalsh(b.P - a.P)[0]) >= -tol

    kept = []
    for i, piece in enumerate(pieces):
        dropped = False
        for j, other in enumerate(pieces):
            if j == i:
                continue
            if dominates(other, piece) and (j < i or not dominates(piece, other)):
                dropped = True
                break
        if not dropped:
            kept.append(piece)
    return kept


def evaluate(pwq: PiecewiseQuadratic, x: np.ndarray) -> tuple[float, int | None]:
    """Value of the pointwise minimum at x and the minimizing piece's
    architecture provenance; ties keep the lowest piece index."""
    x = np.asarray(x, dtype=float)
    values = [float(x @ piece.P @ x) + piece.q for piece in pwq.pieces]
    idx = int(np.argmin(values))
    return values[idx], pwq.pieces[idx].provenance


def brute_force_value(system: LinearNetworkSystem, Q: np.ndarray, R, Q_T: np.ndarray,
                      W: np.ndarray, T: int, K_cardinality: int, x: np.ndarray) -> float:
    """Minimum cost at x over every architecture sequence, scored directly.

    Each sequence (B_0..B_{T-1}) is priced by its own time-varying Riccati
    recursion: x'P_0 x plus the accumulated trace(P_{tau+1} W) noise offsets.
    Independent of dp_backward except for the shared single-step update.
    """
    check_psd(Q, "Q")
    check_psd(Q_T, "Q_T")
    check_psd(W, "W")
    A = system.A
    archs = architecture_subsets(system.num_actuators, K_cardinality)
    if len(archs) ** T > SEQUENCE_GUARD:
        raise ValueError(f"architecture sequence count exceeds {SEQUENCE_GUARD}")
    B_mats = {s: system.actuator_pool[:, list(s)] for s in archs}
    R_blocks = {s: input_cost_block(R, s) for s in archs}
    x = np.asarray(x, dtype=float)
    Q_T = np.asarray(Q_T, dtype=float)
    best = np.inf
    for seq in itertools.product(archs, repeat=T):
        P = Q_T
        offset = 0.0
        for s in reversed(seq):
            offset += float(np.sum(P * W))
            _, P = riccati_step(A, B_mats[s], Q, R_blocks[s], P, check=False)
        value = float(x @ P @ x) + offset
        if value < best:
            best = value
    return best
