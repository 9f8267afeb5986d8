"""PauliObservable: construction, algebra, and dense/compressed agreement.

The compressed-path tests enforce the subsystem's headline property: the
expectation value is computed blockwise on the compressed representation —
``statevector()`` is monkeypatched to raise, so any densifying regression
fails loudly.  The block reduction underneath is checked against the
per-term sign vectors it replaced (:mod:`reference_kernels`).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels
import repro
from repro import CompressedSimulator, PauliObservable, QuantumCircuit, SimulatorConfig
from repro.applications import (
    expected_cut_from_counts,
    expected_cut_from_zz,
    maxcut_observable,
    qaoa_maxcut_circuit,
    random_regular_graph,
)
from repro.backends.compressed import _CompressedSession, _package_result
from repro.circuits import ghz_circuit
from repro.compression.lossless import LosslessCompressor
from repro.statevector import DenseSimulator, simulate_statevector
from repro.statevector.measurement import diagonal_partials


def forbid_statevector(monkeypatch):
    """Make any statevector() materialisation on the compressed path fail."""

    def _forbidden(self):
        raise AssertionError(
            "compressed expectation must not materialise the statevector"
        )

    monkeypatch.setattr(CompressedSimulator, "statevector", _forbidden)


class TestConstruction:
    def test_single_string_term(self):
        observable = PauliObservable("ZZI")
        assert observable.terms == ((1.0, "ZZI"),)
        assert observable.num_qubits == 3
        assert observable.is_diagonal

    def test_lowercase_accepted(self):
        assert PauliObservable("zxy").terms == ((1.0, "ZXY"),)

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="invalid Pauli"):
            PauliObservable("ZQI")

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError):
            PauliObservable("")

    def test_mismatched_widths_rejected(self):
        with pytest.raises(ValueError, match="same width"):
            PauliObservable.from_terms([(1.0, "ZZ"), (1.0, "ZZZ")])

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError):
            PauliObservable.from_terms([])

    def test_non_finite_coefficient_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PauliObservable("Z", float("nan"))

    def test_helpers(self):
        assert PauliObservable.single("X", 1, 3).terms == ((1.0, "IXI"),)
        assert PauliObservable.zz(0, 2, 3).terms == ((1.0, "ZIZ"),)
        with pytest.raises(ValueError):
            PauliObservable.single("Z", 5, 3)
        with pytest.raises(ValueError):
            PauliObservable.zz(1, 1, 3)

    def test_labels(self):
        observable = PauliObservable("ZZ", 0.5)
        assert observable.label == "0.5*ZZ"
        named = observable.with_label("energy")
        assert named.label == "energy"
        assert named.terms == observable.terms


class TestAlgebra:
    def test_weighted_sum(self):
        observable = 0.5 * PauliObservable("ZZ") + 0.25 * PauliObservable("XX")
        assert set(observable.terms) == {(0.5, "ZZ"), (0.25, "XX")}
        assert not observable.is_diagonal
        assert observable.coefficient_norm() == pytest.approx(0.75)

    def test_duplicate_terms_merge(self):
        observable = PauliObservable("ZI") + PauliObservable("ZI", 2.0)
        assert observable.terms == ((3.0, "ZI"),)

    def test_subtraction_and_negation(self):
        observable = PauliObservable("Z") - PauliObservable("Z", 0.25)
        assert observable.terms == ((0.75, "Z"),)
        assert (-observable).terms == ((-0.75, "Z"),)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliObservable("ZZ") + PauliObservable("Z")


class TestDenseExpectation:
    def test_computational_basis_z(self):
        zero = np.zeros(4, dtype=np.complex128)
        zero[0] = 1.0  # |00>
        assert PauliObservable("ZI").expectation(zero) == pytest.approx(1.0)
        one = np.zeros(4, dtype=np.complex128)
        one[1] = 1.0  # |q0=1>
        assert PauliObservable("ZI").expectation(one) == pytest.approx(-1.0)
        assert PauliObservable("IZ").expectation(one) == pytest.approx(1.0)

    def test_plus_state_x(self):
        plus = np.full(2, 1 / np.sqrt(2), dtype=np.complex128)
        assert PauliObservable("X").expectation(plus) == pytest.approx(1.0)
        assert PauliObservable("Z").expectation(plus) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_correlations(self):
        bell = np.zeros(4, dtype=np.complex128)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        assert PauliObservable("ZZ").expectation(bell) == pytest.approx(1.0)
        assert PauliObservable("XX").expectation(bell) == pytest.approx(1.0)
        assert PauliObservable("YY").expectation(bell) == pytest.approx(-1.0)

    def test_dense_simulator_input(self):
        simulator = DenseSimulator(2)
        simulator.apply_circuit(QuantumCircuit(2).h(0).cx(0, 1))
        assert PauliObservable("ZZ").expectation(simulator) == pytest.approx(1.0)

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            PauliObservable("ZZ").expectation(np.ones(8, dtype=np.complex128))

    def test_expectation_z_consistency(self):
        circuit = QuantumCircuit(3).h(0).ry(0.7, 1).cx(0, 2)
        simulator = DenseSimulator(3)
        simulator.apply_circuit(circuit)
        for qubit in range(3):
            assert PauliObservable.single("Z", qubit, 3).expectation(
                simulator
            ) == pytest.approx(simulator.expectation_z(qubit))


class TestCompressedExpectation:
    def test_ghz_diagonal_and_offdiagonal(self, simulator_config, monkeypatch):
        forbid_statevector(monkeypatch)
        num_qubits = 8
        circuit = ghz_circuit(num_qubits)
        reference = simulate_statevector(circuit)
        observable = (
            PauliObservable("Z" * num_qubits)
            + 0.5 * PauliObservable("X" * num_qubits)
            + 2.0 * PauliObservable.zz(0, num_qubits - 1, num_qubits)
        )
        expected = observable.expectation(reference)
        simulator = CompressedSimulator(
            num_qubits, simulator_config(num_ranks=4, block_amplitudes=16)
        )
        simulator.apply_circuit(circuit)
        assert observable.expectation(simulator) == pytest.approx(expected, abs=1e-9)
        # GHZ ground truth for even n: <Z^n> = 1, <X^n> = 1, <Z_0 Z_{n-1}> = 1.
        assert observable.expectation(simulator) == pytest.approx(
            1.0 + 0.5 * 1.0 + 2.0 * 1.0, abs=1e-9
        )

    def test_y_terms_match_dense(self, simulator_config, monkeypatch):
        forbid_statevector(monkeypatch)
        circuit = QuantumCircuit(6).h(0).cx(0, 1).s(1).ry(0.9, 2).cx(1, 3).t(3)
        reference = simulate_statevector(circuit)
        observable = PauliObservable.from_terms(
            [(1.0, "YYIIII"), (0.7, "IZYIXI"), (-0.3, "ZIIZII")]
        )
        simulator = CompressedSimulator(
            6, simulator_config(num_ranks=2, block_amplitudes=8)
        )
        simulator.apply_circuit(circuit)
        assert observable.expectation(simulator) == pytest.approx(
            observable.expectation(reference), abs=1e-9
        )

    def test_width_mismatch_rejected(self, simulator_config):
        simulator = CompressedSimulator(4, simulator_config(block_amplitudes=4))
        with pytest.raises(ValueError, match="4"):
            PauliObservable("ZZ").expectation(simulator)

    def test_fork_leaves_state_untouched(self, simulator_config):
        circuit = QuantumCircuit(5).h(0).cx(0, 1).cx(1, 2)
        simulator = CompressedSimulator(
            5, simulator_config(num_ranks=2, block_amplitudes=8)
        )
        simulator.apply_circuit(circuit)
        blobs_before = [
            entry.blob for _key, entry in simulator.state.iter_blocks()
        ]
        PauliObservable("XXIII").expectation(simulator)
        blobs_after = [entry.blob for _key, entry in simulator.state.iter_blocks()]
        assert blobs_before == blobs_after


@st.composite
def blocks_and_masks(draw):
    """A block of ``2^0``–``2^12`` probabilities at some block index, and Z
    masks with bits on both sides of its boundary (the identity first)."""

    offset_bits = draw(st.integers(min_value=0, max_value=12))
    index = draw(st.integers(min_value=0, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    masks = draw(
        st.lists(
            st.integers(min_value=0, max_value=(16 << offset_bits) - 1),
            min_size=1,
            max_size=8,
        )
    )
    probs = np.random.default_rng(seed).random(1 << offset_bits) ** 4
    return probs, index << offset_bits, [0, *masks]


class TestBlockReduction:
    @given(blocks_and_masks())
    @settings(max_examples=200, deadline=None)
    def test_partials_match_the_sign_vectors(self, case):
        probs, base, zmasks = case
        partials = diagonal_partials(probs.copy(), base, zmasks)
        indices = base + np.arange(probs.size, dtype=np.int64)
        scale = probs.sum()
        for zmask, partial in zip(zmasks, partials):
            expected = probs @ reference_kernels.signs(indices, zmask)
            assert abs(partial - expected) <= 1e-12 * scale

    def test_identity_partial_is_the_mass(self):
        probs = np.random.default_rng(3).random(64)
        (partial,) = diagonal_partials(probs.copy(), 128, [0])
        assert partial == pytest.approx(probs.sum(), rel=1e-15)

    def test_rotation_groups_are_built_once(self, simulator_config, monkeypatch):
        observable = PauliObservable.from_terms(
            [(1.0, "ZZIII"), (0.5, "XIZII"), (0.25, "IIIYI")]
        )
        assert observable.diagonal_zmasks == (0b11,)

        def rebuilt(_terms):
            raise AssertionError("rotation groups rebuilt on evaluation")

        monkeypatch.setattr(PauliObservable, "_rotation_groups", staticmethod(rebuilt))
        circuit = QuantumCircuit(5).h(0).cx(0, 1).ry(0.4, 3)
        with CompressedSimulator(
            5, simulator_config(num_ranks=2, block_amplitudes=4)
        ) as simulator:
            simulator.apply_circuit(circuit)
            for _ in range(2):
                assert observable.expectation(simulator) == pytest.approx(
                    observable.expectation(simulate_statevector(circuit)), abs=1e-12
                )

    def test_result_reads_each_block_once_plus_hit_blocks(
        self, simulator_config, monkeypatch
    ):
        """``repro.run()``'s readout: one reduction for the sampler's masses
        and every observable's diagonal terms, then only the hit blocks."""

        graph = random_regular_graph(8, degree=3, seed=2)
        circuit = qaoa_maxcut_circuit(graph, gammas=[0.4], betas=[0.3])
        observables = [
            maxcut_observable(graph),
            PauliObservable.from_terms(
                [(1.0, "ZIIIIIIZ"), (2.0, "IIIIIIII")], label="extra"
            ),
        ]
        config = simulator_config(num_ranks=2, block_amplitudes=16)
        with CompressedSimulator(8, config) as simulator:
            simulator.apply_circuit(circuit)
            decoded = []
            original = LosslessCompressor.decompress

            def counting(self, blob):
                decoded.append(blob)
                return original(self, blob)

            monkeypatch.setattr(LosslessCompressor, "decompress", counting)
            result = _package_result(
                "compressed",
                simulator,
                _CompressedSession(config=config),
                circuit,
                shots=40,
                observables=observables,
                rng=np.random.default_rng(9),
                return_statevector=False,
            )
            total_blocks = simulator.partition.total_blocks
            hit_blocks = {key // 16 for key in result.counts}
            assert len(decoded) == total_blocks + len(hit_blocks)
            monkeypatch.setattr(LosslessCompressor, "decompress", original)
            for observable in observables:
                assert result.expectations[observable.label] == (
                    observable.expectation(simulator)
                )
            assert result.counts == simulator.sample_counts(
                40, np.random.default_rng(9)
            )


class TestQaoaAcceptance:
    """The ISSUE acceptance criterion: >=14-qubit QAOA, dense vs compressed."""

    NUM_QUBITS = 14

    @pytest.fixture(scope="class")
    def qaoa_setup(self):
        graph = random_regular_graph(self.NUM_QUBITS, degree=4, seed=11)
        rng = np.random.default_rng(11)
        circuit = qaoa_maxcut_circuit(
            graph,
            gammas=rng.uniform(0.1, 0.9, size=2),
            betas=rng.uniform(0.1, 0.9, size=2),
        )
        return graph, circuit

    def test_lossless_energy_matches_dense(self, qaoa_setup, monkeypatch):
        forbid_statevector(monkeypatch)
        graph, circuit = qaoa_setup
        observable = maxcut_observable(graph)
        dense = repro.run(circuit, backend="dense", observables=observable)
        compressed = repro.run(
            circuit,
            backend="compressed",
            observables=observable,
            config=SimulatorConfig(num_ranks=2),
        )
        # Lossless compression: the active error bound is 0, agreement is
        # limited only by floating-point noise.
        assert compressed.report["final_error_bound"] == 0.0
        assert compressed.expectation(observable.label) == pytest.approx(
            dense.expectation(observable.label), abs=1e-8
        )

    def test_lossy_energy_within_error_bound(self, qaoa_setup, monkeypatch):
        forbid_statevector(monkeypatch)
        graph, circuit = qaoa_setup
        observable = maxcut_observable(graph)
        bound = 1e-3
        dense = repro.run(circuit, backend="dense", observables=observable)
        compressed = repro.run(
            circuit,
            backend="compressed",
            observables=observable,
            config=SimulatorConfig(
                num_ranks=2, start_lossless=False, error_levels=(bound,)
            ),
        )
        assert compressed.report["final_error_bound"] == bound
        # A pointwise relative bound delta per recompression perturbs each
        # |a|^2 by O(delta); the expectation of a sum of +-1 observables is
        # then off by at most ~coefficient_norm * O(gates * delta).  The
        # fidelity lower bound gives the same scale; use it as the active
        # error budget.
        fidelity_bound = compressed.report["fidelity_lower_bound"]
        budget = observable.coefficient_norm() * 4.0 * (1.0 - fidelity_bound)
        difference = abs(
            compressed.expectation(observable.label)
            - dense.expectation(observable.label)
        )
        assert difference <= max(budget, 1e-6)

    def test_energy_consistent_with_sampling(self, qaoa_setup):
        graph, circuit = qaoa_setup
        observable = maxcut_observable(graph)
        result = repro.run(
            circuit,
            backend="compressed",
            shots=4000,
            observables=observable,
            seed=5,
            config=SimulatorConfig(num_ranks=2),
        )
        exact_cut = expected_cut_from_zz(
            graph, result.expectation(observable.label)
        )
        sampled_cut = expected_cut_from_counts(graph, result.counts)
        # Sampling 4000 shots estimates the exact expectation to ~0.1 edges.
        assert sampled_cut == pytest.approx(exact_cut, abs=0.5)


class TestMaxcutObservableHelpers:
    def test_edge_terms(self):
        graph = random_regular_graph(6, degree=2, seed=1)
        observable = maxcut_observable(graph)
        assert len(observable.terms) == graph.number_of_edges()
        for coeff, paulis in observable.terms:
            assert coeff == 1.0
            assert paulis.count("Z") == 2

    def test_expected_cut_identity(self):
        graph = random_regular_graph(6, degree=2, seed=1)
        edges = graph.number_of_edges()
        # All spins aligned (<ZuZv> = 1): nothing is cut.
        assert expected_cut_from_zz(graph, float(edges)) == 0.0
        # Perfect anticorrelation on every edge: everything is cut.
        assert expected_cut_from_zz(graph, -float(edges)) == float(edges)
