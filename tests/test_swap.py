"""Beam-splitter relations, Bell-state measurement and swap noise channels."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrep import qcore, swap
from magrep.qcore import (
    BELL_LABELS,
    DensityMatrix,
    bell_state,
    fidelity,
    qubit_space,
    tensor_product,
    werner_state,
)
from magrep.swap import (
    beam_splitter_unitary,
    bsm,
    depolarize,
    heralded_link_probability,
    node_swap_gate,
    swap_time,
)
from helpers import (
    bell_state_from_ket,
    brute_force_bsm,
    checked_bsm_reference,
    exact_chain_state,
    fusion_inputs,
    fusion_op,
    ginibre_matrix,
    matrices_equal,
    random_four_qubit,
    states_close,
    werner_state_from_ket,
)


def two_singlets() -> DensityMatrix:
    return tensor_product(
        bell_state("psi_minus", ("q0", "q1")), bell_state("psi_minus", ("q2", "q3"))
    )


class TestBeamSplitter:
    def test_zero_angle_is_identity(self):
        assert matrices_equal(beam_splitter_unitary(1.0, 0.0), np.eye(2), atol=0)

    def test_balanced_splitter(self):
        u = beam_splitter_unitary(math.pi / 4, 1.0)
        assert np.allclose(np.abs(u) ** 2, 0.5, atol=1e-12)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12

    def test_full_swap_up_to_phase(self):
        u = beam_splitter_unitary(math.pi / 2, 1.0)
        expected = np.array([[0, -1j], [-1j, 0]])
        assert matrices_equal(u, expected, atol=1e-12)

    @pytest.mark.parametrize("beta, t", [(1e200, 1e200), (1e308, 10.0), (-1e200, 1e200)])
    def test_overflowing_phase_is_refused_by_name(self, beta, t):
        # each factor is finite, but their product overflows to +-inf
        with pytest.raises(ValueError, match=r"^beta \* t must be finite, got -?inf$"):
            beam_splitter_unitary(beta, t)

    @given(angle=st.floats(-10.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_always_unitary(self, angle):
        u = beam_splitter_unitary(angle, 1.0)
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) <= 1e-12


class TestSwapTime:
    def test_design_rate(self):
        assert swap_time(2 * math.pi * 130e6) == pytest.approx(1.923e-9, abs=1e-12)

    def test_doubling_rate_halves_time(self):
        assert swap_time(2.0) == pytest.approx(swap_time(1.0) / 2.0, rel=1e-12)

    def test_large_rate_limit(self):
        assert swap_time(1e18) < 1e-17

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            swap_time(0.0)


class TestBellOutcomes:
    def test_projectors_partition_identity(self):
        projectors = qcore._BELL_PROJECTORS
        assert matrices_equal(sum(projectors.values()), np.eye(4), atol=1e-12)
        for proj in projectors.values():
            assert np.trace(proj) == pytest.approx(1.0, abs=1e-12)
            assert matrices_equal(proj @ proj, proj, atol=1e-12)
        for a in BELL_LABELS:
            for b in BELL_LABELS:
                if a != b:
                    assert np.max(np.abs(projectors[a] @ projectors[b])) <= 1e-12

    def test_correction_table(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        expected = {
            "psi_plus": z,
            "psi_minus": np.eye(2, dtype=complex),
            "phi_plus": z @ x,
            "phi_minus": x,
        }
        assert tuple(swap._CORRECTIONS) == BELL_LABELS
        for label, corr in swap._CORRECTIONS.items():
            assert np.array_equal(corr, np.kron(np.eye(2), expected[label]))
            assert not corr.flags.writeable

    def test_projectors_are_the_read_only_table(self):
        # bsm reads the one table qcore builds, so a patched entry reaches both
        assert swap._BELL_PROJECTORS is qcore._BELL_PROJECTORS
        for proj in qcore._BELL_PROJECTORS.values():
            assert not proj.flags.writeable

    def test_lookup(self):
        assert bsm(two_singlets(), "q1", "q2", outcome="phi_plus").outcome == "phi_plus"
        assert bsm(two_singlets(), "q1", "q2", outcome="psi_minus").outcome == "psi_minus"
        with pytest.raises(ValueError, match="unknown outcome"):
            bsm(two_singlets(), "q1", "q2", outcome="nope")
        with pytest.raises(ValueError, match="unknown outcome"):
            bsm(two_singlets(), "q1", "q2", outcome=2)  # an index is not a label


def branch_probabilities(rho: DensityMatrix, qubit_a: str, qubit_b: str) -> np.ndarray:
    """``bsm``'s probability of each Bell outcome, in ``BELL_LABELS`` order."""
    return np.array([bsm(rho, qubit_a, qubit_b, outcome=label).probability
                     for label in BELL_LABELS])


class TestBSM:
    def test_singlet_singlet_uniform_outcomes(self):
        probs = branch_probabilities(two_singlets(), "q1", "q2")
        assert np.allclose(probs, 0.25, atol=1e-10)

    def test_singlet_singlet_every_outcome_restores_singlet(self):
        rho = two_singlets()
        target = bell_state("psi_minus")
        for label in BELL_LABELS:
            result = bsm(rho, "q1", "q2", outcome=label)
            assert result.outcome == label
            assert result.probability == pytest.approx(0.25, abs=1e-10)
            assert fidelity(result.post_state, target) == pytest.approx(1.0, abs=1e-10)
            assert result.post_state.space.labels == ("q0", "q3")

    def test_singlet_branch_needs_no_correction(self):
        result = bsm(two_singlets(), "q1", "q2", outcome="psi_minus")
        assert np.array_equal(swap._CORRECTIONS[result.outcome], np.eye(4, dtype=complex))

    def test_werner_composition(self):
        rho = tensor_product(werner_state(0.94, ("q0", "q1")), werner_state(0.94, ("q2", "q3")))
        result = bsm(rho, "q1", "q2", outcome="psi_minus")
        expected = werner_state(0.94 * 0.94)
        assert matrices_equal(result.post_state.matrix, expected.matrix, atol=1e-9)

    def test_outcome_distribution_on_random_states(self, rng):
        for _ in range(100):
            probs = branch_probabilities(random_four_qubit(rng), "q1", "q2")
            assert np.all(probs >= -1e-12)
            assert np.all(probs <= 1 + 1e-12)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(50):
            rho = random_four_qubit(rng)
            for k, label in enumerate(BELL_LABELS):
                result = bsm(rho, "q1", "q2", outcome=label)
                prob_bf, post_bf = brute_force_bsm(rho.matrix, k)
                assert result.probability == pytest.approx(prob_bf, abs=1e-10)
                assert np.max(np.abs(result.post_state.matrix - post_bf)) <= 1e-10

    @pytest.mark.parametrize("pair", [("q0", "q2"), ("q3", "q1")], ids=["non-adjacent", "reversed"])
    def test_other_qubit_pairs_match_brute_force_oracle(self, rng, pair):
        # the oracle measures positions 1 and 2, so permute the register's axes
        # to (first survivor, qubit_a, qubit_b, second survivor) first
        survivors = tuple(q for q in ("q0", "q1", "q2", "q3") if q not in pair)
        order = [int(q[1]) for q in (survivors[0], *pair, survivors[1])]
        for _ in range(20):
            rho = random_four_qubit(rng)
            moved = rho.matrix.reshape((2,) * 8).transpose(order + [4 + i for i in order])
            for k, label in enumerate(BELL_LABELS):
                result = bsm(rho, *pair, outcome=label)
                prob_bf, post_bf = brute_force_bsm(moved.reshape(16, 16), k)
                assert result.post_state.space.labels == survivors
                assert result.probability == pytest.approx(prob_bf, abs=1e-10)
                assert np.max(np.abs(result.post_state.matrix - post_bf)) <= 1e-10

    @pytest.mark.parametrize("pair", [("q1", "q2"), ("q0", "q2"), ("q3", "q1")],
                             ids=["adjacent", "non-adjacent", "reversed"])
    def test_bit_identical_to_checked_reference(self, rng, pair):
        # bsm passes its branch as plain arrays; a path that checks every
        # intermediate state must give the same bits
        for _ in range(20):
            rho = random_four_qubit(rng)
            for label in BELL_LABELS:
                result = bsm(rho, *pair, outcome=label)
                prob, post = checked_bsm_reference(rho, *pair, label)
                assert result.probability == prob
                assert result.post_state.space == post.space
                assert np.array_equal(result.post_state.matrix, post.matrix)

    def test_corrupted_post_state_is_refused(self, monkeypatch):
        # a correction that is not unitary scales the trace by 4; the returned
        # state's own check must still catch it
        bad = 2.0 * swap._CORRECTIONS["psi_plus"]
        monkeypatch.setitem(swap._CORRECTIONS, "psi_plus", bad)
        with pytest.raises(ValueError, match="trace .* deviates from 1"):
            bsm(two_singlets(), "q1", "q2", outcome="psi_plus")

    def test_complex_correction_is_applied_with_its_adjoint(self, rng, monkeypatch):
        # the four Pauli corrections are real, so only a complex unitary shows
        # that bsm conjugates by the correction's adjoint, not its transpose
        phase = np.kron(np.eye(2), np.diag([1.0, 1.0j]))
        monkeypatch.setitem(swap._CORRECTIONS, "psi_plus", phase)
        rho = random_four_qubit(rng)
        result = bsm(rho, "q1", "q2", outcome="psi_plus")
        _, post = checked_bsm_reference(rho, "q1", "q2", "psi_plus")
        assert np.array_equal(result.post_state.matrix, post.matrix)

    @staticmethod
    def all_zeros() -> DensityMatrix:
        m = np.zeros((16, 16), dtype=complex)
        m[0, 0] = 1.0  # |0000>: q1 q2 in |00>, which only the phi outcomes contain
        return DensityMatrix(qubit_space("q0", "q1", "q2", "q3"), m)

    @pytest.mark.parametrize("outcome", ["psi_plus", "psi_minus"])
    def test_zero_probability_branch_rejected(self, outcome):
        message = f"outcome {outcome} has probability .*; branch is empty"
        with pytest.raises(ValueError, match=message):
            bsm(self.all_zeros(), "q1", "q2", outcome=outcome)

    def test_nonempty_branch_of_the_same_state(self):
        result = bsm(self.all_zeros(), "q1", "q2", outcome="phi_plus")
        assert result.probability == pytest.approx(0.5, abs=1e-12)

    def test_mode_must_be_specified(self):
        with pytest.raises(TypeError, match="outcome"):
            bsm(two_singlets(), "q1", "q2")

    def test_requires_four_qubits(self):
        with pytest.raises(ValueError, match="four qubits"):
            bsm(bell_state("psi_minus"), "q0", "q1", outcome="psi_plus")

    def test_werner_closure_chain(self):
        for n in range(1, 5):
            state = exact_chain_state(werner_state(0.94).matrix, 1.0, n)
            expected = werner_state(0.94**n)
            assert np.max(np.abs(state.matrix - expected.matrix)) <= 1e-9

    def test_fusion_bit_identical_with_from_ket_links(self):
        # The swap-fusion benchmark's first 50 seed-907 operations, once with
        # the library's links and singlet and once with the from_ket route.
        for _, (purities, heralds) in zip(range(50), fusion_inputs(907)):
            m, fid, conc = fusion_op(purities, heralds)
            m_ref, fid_ref, conc_ref = fusion_op(
                purities, heralds, werner=werner_state_from_ket, bell=bell_state_from_ket
            )
            assert np.array_equal(m, m_ref)
            assert (fid, conc) == (fid_ref, conc_ref)

    def test_two_stage_repeater_procedure(self):
        # first-stage measurements have left (m1,m2) and (m3,m4) in singlets;
        # the repeater node swaps m2, m3 into its empty cavities, drops the
        # emptied magnons, and a second measurement on the cavities leaves the
        # end magnons (m1, m4) in the singlet for every heralded branch
        from magrep.qcore import DensityMatrix, partial_trace

        vacuum = np.diag([1.0, 0.0]).astype(complex)
        node = tensor_product(
            tensor_product(bell_state("psi_minus", ("m1", "m2")),
                           DensityMatrix(qubit_space("c2"), vacuum)),
            tensor_product(bell_state("psi_minus", ("m3", "m4")),
                           DensityMatrix(qubit_space("c3"), vacuum)),
        )
        node = node_swap_gate(node, "m2", "c2")
        node = node_swap_gate(node, "m3", "c3")
        register = partial_trace(node, ["m1", "c2", "c3", "m4"])
        for label in BELL_LABELS:
            result = bsm(register, "c2", "c3", outcome=label)
            assert result.probability == pytest.approx(0.25, abs=1e-10)
            assert fidelity(result.post_state, bell_state("psi_minus")) == pytest.approx(1.0, abs=1e-10)


class TestNodeSwapGate:
    def test_swaps_product_state(self, rng):
        a = DensityMatrix(qubit_space("a"), ginibre_matrix(rng, 2))
        b = DensityMatrix(qubit_space("b"), ginibre_matrix(rng, 2))
        joint = tensor_product(a, b)
        swapped = node_swap_gate(joint, "a", "b")
        assert matrices_equal(swapped.matrix, np.kron(b.matrix, a.matrix), atol=1e-12)

    def test_involution(self, rng):
        space = qubit_space("a", "b", "c")
        rho = DensityMatrix(space, ginibre_matrix(rng, 8))
        twice = node_swap_gate(node_swap_gate(rho, "a", "c"), "a", "c")
        assert np.max(np.abs(twice.matrix - rho.matrix)) <= 1e-12

    def test_transfers_entanglement_to_cavity(self):
        # (m1, m2) singlet plus an empty cavity c2; swapping m2 into c2
        # leaves (m1, c2) in the singlet
        pair = bell_state("psi_minus", ("m1", "m2"))
        cavity = DensityMatrix(qubit_space("c2"), np.diag([1.0, 0.0]).astype(complex))
        joint = tensor_product(pair, cavity)
        moved = node_swap_gate(joint, "m2", "c2")
        from magrep.qcore import partial_trace

        end_pair = partial_trace(moved, ["m1", "c2"])
        assert fidelity(end_pair, bell_state("psi_minus")) == pytest.approx(1.0, abs=1e-12)

    def test_non_qubit_rejected(self):
        from magrep.qcore import HilbertSpec

        space = HilbertSpec((("a", 3), ("b", 2)))
        rho = DensityMatrix(space, np.eye(6, dtype=complex) / 6)
        with pytest.raises(ValueError, match="not a qubit"):
            node_swap_gate(rho, "a", "b")


class TestDepolarize:
    def test_full_retention(self, rng):
        rho = DensityMatrix(qubit_space("a", "b"), ginibre_matrix(rng, 4))
        assert states_close(depolarize(rho, 1.0), rho, atol=1e-15)

    def test_zero_retention(self, rng):
        rho = DensityMatrix(qubit_space("a", "b"), ginibre_matrix(rng, 4))
        assert matrices_equal(depolarize(rho, 0.0).matrix, np.eye(4) / 4, atol=1e-15)

    @given(
        p=st.floats(0.0, 1.0, allow_nan=False),
        q=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_werner_family_closure(self, p, q):
        got = depolarize(werner_state(p), q)
        assert matrices_equal(got.matrix, werner_state(p * q).matrix, atol=1e-12)

    def test_range_error(self):
        with pytest.raises(ValueError, match="outside"):
            depolarize(werner_state(0.9), 1.5)


class TestHeraldedLinkProbability:
    def test_lossless_limit(self):
        assert heralded_link_probability(0.0) == 0.5

    def test_reference_lengths(self):
        assert heralded_link_probability(10.0, 10.0) == pytest.approx(math.exp(-1.0) / 2, abs=1e-12)
        assert heralded_link_probability(20.0, 10.0) == pytest.approx(math.exp(-2.0) / 2, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match=">= 0"):
            heralded_link_probability(-1.0)
        with pytest.raises(ValueError, match="> 0"):
            heralded_link_probability(1.0, 0.0)


@pytest.mark.parametrize("call", [
    lambda: heralded_link_probability(math.nan),
    lambda: heralded_link_probability(1.0, math.nan),
    lambda: swap_time(math.nan),
], ids=["length", "attenuation_length", "swap_rate"])
def test_range_checks_reject_nan(call):
    with pytest.raises(ValueError, match="nan"):
        call()
