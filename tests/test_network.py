"""Network model: pools, architecture sets, constraints, random generators."""

import numpy as np
import pytest

from archtune import (
    ArchitectureConstraints,
    ArchitectureSet,
    LinearNetworkSystem,
    build_input_matrix,
    build_output_matrix,
    random_network,
    random_network_localized,
)
from archtune.network import indicator, satisfies_constraints

from conftest import canonical_system, random_arch


def _system3():
    return canonical_system(np.eye(3))


class TestArchitectureSet:
    def test_sorted_and_deduplicated(self):
        a = ArchitectureSet(actuators=(2, 0), sensors=(1,))
        assert a.actuators == (0, 2)
        assert a.sensors == (1,)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSet(actuators=(0, 0), sensors=())
        with pytest.raises(ValueError):
            ArchitectureSet(actuators=(), sensors=(1, 1))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureSet(actuators=(-1,), sensors=())


class TestBuildMatrices:
    def test_input_column_stacking(self):
        sys_ = _system3()
        B = build_input_matrix(sys_, ArchitectureSet(actuators=(0, 2), sensors=()))
        assert B.shape == (3, 2)
        assert np.array_equal(B[:, 0], np.eye(3)[:, 0])
        assert np.array_equal(B[:, 1], np.eye(3)[:, 2])

    def test_empty_actuators(self):
        B = build_input_matrix(_system3(), ArchitectureSet(actuators=(), sensors=()))
        assert B.shape == (3, 0)

    def test_out_of_range_actuator(self):
        sys_ = LinearNetworkSystem(A=np.eye(1), actuator_pool=np.eye(1),
                                   sensor_pool=np.eye(1), W=np.zeros((1, 1)), v_var=0.0)
        with pytest.raises(ValueError):
            build_input_matrix(sys_, ArchitectureSet(actuators=(1,), sensors=()))

    def test_output_row_stacking(self):
        sys_ = _system3()
        C = build_output_matrix(sys_, ArchitectureSet(actuators=(), sensors=(1,)))
        assert C.shape == (1, 3)
        assert np.array_equal(C[0], np.eye(3)[1])
        C2 = build_output_matrix(sys_, ArchitectureSet(actuators=(), sensors=(0, 1)))
        assert np.array_equal(C2, np.eye(3)[[0, 1]])

    def test_empty_sensors(self):
        C = build_output_matrix(_system3(), ArchitectureSet(actuators=(), sensors=()))
        assert C.shape == (0, 3)

    def test_columns_match_pool_entries_exhaustively(self):
        """Column j of the built matrix is pool entry sorted(arch)[j]."""
        rng = np.random.default_rng(7)
        pool = rng.standard_normal((4, 6))
        sys_ = LinearNetworkSystem(A=np.eye(4), actuator_pool=pool,
                                   sensor_pool=np.eye(4), W=np.zeros((4, 4)), v_var=0.0)
        import itertools
        for k in range(7):
            for sub in itertools.combinations(range(6), k):
                B = build_input_matrix(sys_, ArchitectureSet(actuators=sub, sensors=()))
                for j, idx in enumerate(sorted(sub)):
                    assert np.array_equal(B[:, j], pool[:, idx])


class TestIndicator:
    def test_examples(self):
        assert np.array_equal(
            indicator(ArchitectureSet(actuators=(0, 2), sensors=()), "actuator", 3),
            [1, 0, 1])
        assert np.array_equal(
            indicator(ArchitectureSet(actuators=(), sensors=()), "actuator", 2), [0, 0])
        assert np.array_equal(
            indicator(ArchitectureSet(actuators=(0, 1), sensors=()), "actuator", 2), [1, 1])

    def test_roundtrip_identity(self, rng):
        # indicator -> set -> indicator is the identity on binary vectors
        for _ in range(50):
            M = int(rng.integers(1, 8))
            bits = rng.integers(0, 2, M)
            arch = ArchitectureSet(actuators=tuple(np.flatnonzero(bits).tolist()),
                                   sensors=())
            assert np.array_equal(indicator(arch, "actuator", M), bits)
            assert indicator(arch, "actuator", M).sum() == len(arch.actuators)


class TestConstraints:
    def test_satisfies_closed_bounds(self):
        cons = ArchitectureConstraints(5, 5, 5, 5)
        full = ArchitectureSet(actuators=tuple(range(5)), sensors=tuple(range(5)))
        assert satisfies_constraints(full, cons)
        cons2 = ArchitectureConstraints(1, 3, 0, 2)
        assert not satisfies_constraints(ArchitectureSet(actuators=(), sensors=()), cons2)
        edge = ArchitectureSet(actuators=(0, 1, 2), sensors=())
        assert satisfies_constraints(edge, cons2)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ArchitectureConstraints(2, 1, 0, 0)
        with pytest.raises(ValueError):
            ArchitectureConstraints(0, 0, -1, 0)
        with pytest.raises(ValueError):
            ArchitectureConstraints(0, 1, 0, 1, max_per_subsequence=0)
        with pytest.raises(ValueError):
            ArchitectureConstraints(0, 1, 0, 1, max_changes=1, max_per_subsequence=2)


class TestRandomNetwork:
    def test_spectrum_in_band(self):
        sys_ = random_network(n=50, eig_band=0.1, seed=7)
        lam = np.linalg.eigvalsh(sys_.A)
        assert np.all(np.abs(np.abs(lam) - 1.0) <= 0.1 + 1e-8)

    def test_degenerate_band(self):
        sys_ = random_network(n=8, eig_band=0.0, seed=3)
        lam = np.linalg.eigvalsh(sys_.A)
        assert np.allclose(np.abs(lam), 1.0, atol=1e-8)

    def test_orthonormal_basis(self):
        # A = V D V' with orthonormal V, so A is symmetric and its
        # eigenvector matrix is orthonormal.
        sys_ = random_network(n=20, eig_band=0.3, seed=11)
        assert np.allclose(sys_.A, sys_.A.T, atol=1e-10)
        _, V = np.linalg.eigh(sys_.A)
        assert np.allclose(V.T @ V, np.eye(20), atol=1e-10)

    def test_determinism(self):
        a = random_network(n=12, eig_band=0.2, seed=9).A
        b = random_network(n=12, eig_band=0.2, seed=9).A
        assert np.array_equal(a, b)
        c = random_network(n=12, eig_band=0.2, seed=10).A
        assert not np.array_equal(a, c)

    def test_canonical_pools(self):
        sys_ = random_network(n=6, eig_band=0.1, seed=1)
        assert np.array_equal(sys_.actuator_pool, np.eye(6))
        assert np.array_equal(sys_.sensor_pool, np.eye(6))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            random_network(n=0, eig_band=0.1, seed=1)
        with pytest.raises(ValueError):
            random_network(n=3, eig_band=1.0, seed=1)

    def test_noise_fields_installed(self):
        W = 0.5 * np.eye(4)
        sys_ = random_network(n=4, eig_band=0.1, seed=2, W=W, v_var=2.0)
        assert np.array_equal(sys_.W, W)
        assert sys_.v_var == 2.0


class TestRandomNetworkLocalized:
    def test_unstable_count_and_bands(self):
        sys_ = random_network_localized(n=30, num_unstable=3,
                                        unstable_band=(1.2, 1.4),
                                        stable_band=(0.2, 0.8), seed=5)
        mags = np.abs(np.linalg.eigvalsh(sys_.A))
        unstable = mags[mags > 1.0]
        stable = mags[mags <= 1.0]
        assert unstable.shape[0] == 3
        assert np.all((unstable >= 1.2 - 1e-9) & (unstable <= 1.4 + 1e-9))
        assert np.all((stable >= 0.2 - 1e-9) & (stable <= 0.8 + 1e-9))

    def test_localization_avoids_excluded_nodes(self):
        # Unstable eigenvectors concentrate on single nodes; the dominant
        # component must never land on an excluded node.
        for seed in range(1, 8):
            sys_ = random_network_localized(n=20, num_unstable=2,
                                            unstable_band=(1.2, 1.4),
                                            stable_band=(0.2, 0.8), seed=seed,
                                            localization=0.2, exclude_nodes=(0, 1))
            lam, V = np.linalg.eigh(sys_.A)
            for i in np.flatnonzero(np.abs(lam) > 1.0):
                dominant = int(np.argmax(np.abs(V[:, i])))
                assert dominant not in (0, 1)
                # concentrated: dominant node carries most of the mass
                assert np.abs(V[dominant, i]) > 0.7

    def test_every_node_excluded_without_unstable_modes(self):
        sys_ = random_network_localized(n=2, num_unstable=0, unstable_band=(1.2, 1.4),
                                        stable_band=(0.2, 0.8), seed=1, exclude_nodes=(0, 1))
        assert np.all(np.abs(np.linalg.eigvalsh(sys_.A)) < 1.0)
        with pytest.raises(ValueError, match="n must be"):
            random_network_localized(n=0, num_unstable=0, unstable_band=(1.2, 1.4),
                                     stable_band=(0.2, 0.8), seed=1)

    def test_determinism(self):
        kw = dict(n=15, num_unstable=2, unstable_band=(1.1, 1.3),
                  stable_band=(0.3, 0.9), seed=4)
        assert np.array_equal(random_network_localized(**kw).A,
                              random_network_localized(**kw).A)

    def test_band_validation(self):
        with pytest.raises(ValueError):
            random_network_localized(n=5, num_unstable=1, unstable_band=(0.9, 1.2),
                                     stable_band=(0.2, 0.8), seed=1)
        with pytest.raises(ValueError):
            random_network_localized(n=5, num_unstable=1, unstable_band=(1.1, 1.2),
                                     stable_band=(0.2, 1.0), seed=1)


class TestSystemValidation:
    def test_asymmetric_w_rejected(self):
        W = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            LinearNetworkSystem(A=np.eye(2), actuator_pool=np.eye(2),
                                sensor_pool=np.eye(2), W=W, v_var=0.0)

    def test_negative_v_var_rejected(self):
        with pytest.raises(ValueError):
            LinearNetworkSystem(A=np.eye(2), actuator_pool=np.eye(2),
                                sensor_pool=np.eye(2), W=np.zeros((2, 2)), v_var=-1.0)

    def test_pool_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearNetworkSystem(A=np.eye(2), actuator_pool=np.eye(3),
                                sensor_pool=np.eye(2), W=np.zeros((2, 2)), v_var=0.0)
