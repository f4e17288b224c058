"""Linear algebra primitives, state constructors and the two resource metrics."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magrep import qcore
from magrep.qcore import (
    BELL_LABELS,
    DensityMatrix,
    HilbertSpec,
    ID2,
    PAULI_X,
    PAULI_Y,
    basis_ket,
    bell_state,
    concurrence,
    concurrences,
    embed,
    fidelity,
    partial_trace,
    qubit_space,
    tensor_product,
    werner_state,
    _psd_factor,
)
from helpers import (
    bell_state_from_ket,
    concurrence_oracle,
    ginibre_matrix,
    matrices_equal,
    random_two_qubit,
    states_close,
    werner_state_from_ket,
)


class TestHilbertSpec:
    def test_total_dimension(self):
        spec = HilbertSpec((("a", 2), ("b", 3)))
        assert spec.dim == 6
        assert spec.labels == ("a", "b")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            HilbertSpec((("a", 2), ("a", 2)))

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            HilbertSpec((("a", 1),))

    @pytest.mark.parametrize("dim", [2.9, "3", True])
    def test_non_integer_dimension_rejected(self, dim):
        with pytest.raises(ValueError, match="subsystem 'b' dimension must be an integer"):
            HilbertSpec((("a", 2), ("b", dim)))

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown subsystem"):
            qubit_space("a", "b").index("c")

    @given(subsystems=st.lists(st.tuples(st.text(min_size=1, max_size=3), st.integers(2, 6)),
                               min_size=1, max_size=5, unique_by=lambda sub: sub[0]))
    @settings(max_examples=50, deadline=None)
    def test_shape_is_derived_from_subsystems(self, subsystems):
        spec = HilbertSpec(subsystems)
        assert spec.labels == tuple(lbl for lbl, _ in subsystems)
        assert spec.dims == tuple(d for _, d in subsystems)
        assert spec.dim == int(np.prod(spec.dims))
        assert [spec.index(lbl) for lbl in spec.labels] == list(range(len(subsystems)))

    @pytest.mark.parametrize("name", ["labels", "dims", "dim"])
    def test_shape_attributes_are_read_only(self, name):
        spec = HilbertSpec((("a", 2), ("b", 3)))
        with pytest.raises(AttributeError):
            setattr(spec, name, getattr(spec, name))
        with pytest.raises(AttributeError):
            delattr(spec, name)
        assert (spec.labels, spec.dims, spec.dim) == (("a", "b"), (2, 3), 6)

    def test_spec_is_its_subsystems(self):
        spec = HilbertSpec((("a", 2), ("b", 3)))
        same = HilbertSpec([["a", np.int64(2)], ("b", 3)])
        assert spec == same and hash(spec) == hash(same)
        assert spec != HilbertSpec((("b", 3), ("a", 2)))
        assert repr(spec) == "HilbertSpec(subsystems=(('a', 2), ('b', 3)))"

    def test_replace_recomputes_the_shape(self):
        spec = HilbertSpec((("a", 2), ("b", 3))).replace(subsystems=(("c", 4), ("d", 5), ("e", 2)))
        assert (spec.labels, spec.dims, spec.dim) == (("c", "d", "e"), (4, 5, 2), 40)


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.2
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(qubit_space("a", "b"), m)

    def test_bad_trace_rejected(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(qubit_space("a", "b"), np.eye(4, dtype=complex))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(qubit_space("a", "b"), m)

    @pytest.mark.parametrize("cell", [(2, 2), (0, 1)], ids=["diagonal", "off-diagonal"])
    def test_nan_entry_rejected(self, cell):
        m = np.eye(4, dtype=complex) / 4
        m[cell] = np.nan
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(qubit_space("a", "b"), m)

    def test_matrix_is_readonly(self):
        rho = bell_state("psi_minus")
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_states_validate(self, seed):
        r = np.random.default_rng(seed)
        rho = DensityMatrix(qubit_space("a", "b"), ginibre_matrix(r, 4))
        assert abs(rho.matrix.trace() - 1.0) <= 1e-6

    def test_from_ket_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="zero state"):
            DensityMatrix.from_ket(qubit_space("a"), [0.0, 0.0])

    def test_tensor_product_label_collision(self, rng):
        a = DensityMatrix(qubit_space("a", "b"), ginibre_matrix(rng, 4))
        with pytest.raises(ValueError, match="collision"):
            tensor_product(a, a)

    def test_basis_ket_bounds(self):
        space = qubit_space("a", "b")
        with pytest.raises(ValueError, match="outside"):
            basis_ket(space, (0, 2))
        with pytest.raises(ValueError, match="per subsystem"):
            basis_ket(space, (0,))


class TestPartialTrace:
    def test_singlet_marginal_is_mixed(self):
        rho = bell_state("psi_minus", ("a", "b"))
        reduced = partial_trace(rho, ["a"])
        assert matrices_equal(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovers_factor(self, rng):
        a = DensityMatrix(qubit_space("a"), ginibre_matrix(rng, 2))
        b = DensityMatrix(qubit_space("b"), ginibre_matrix(rng, 2))
        joint = tensor_product(a, b)
        assert matrices_equal(partial_trace(joint, ["a"]).matrix, a.matrix, atol=1e-12)

    def test_three_qubit_ghz_outer_marginal(self):
        # expand the 8x8 projector by hand: tracing the middle qubit kills
        # the |000><111| coherence, leaving an even classical mixture
        space = qubit_space("a", "b", "c")
        ghz = DensityMatrix.from_ket(space, (basis_ket(space, (0, 0, 0)) + basis_ket(space, (1, 1, 1))) / np.sqrt(2))
        reduced = partial_trace(ghz, ["a", "c"])
        expected = np.diag([0.5, 0, 0, 0.5]).astype(complex)
        assert matrices_equal(reduced.matrix, expected, atol=1e-12)

    def test_trace_preserved(self, rng):
        for _ in range(20):
            rho = DensityMatrix(qubit_space("a", "b", "c"), ginibre_matrix(rng, 8))
            reduced = partial_trace(rho, ["b"])
            assert abs(reduced.matrix.trace() - 1.0) <= 1e-9

    def test_commutes_with_convex_mixing(self, rng):
        space = qubit_space("a", "b")
        rho1 = DensityMatrix(space, ginibre_matrix(rng, 4))
        rho2 = DensityMatrix(space, ginibre_matrix(rng, 4))
        lam = 0.3
        mixed = DensityMatrix(space, lam * rho1.matrix + (1 - lam) * rho2.matrix)
        lhs = partial_trace(mixed, ["b"]).matrix
        rhs = lam * partial_trace(rho1, ["b"]).matrix + (1 - lam) * partial_trace(rho2, ["b"]).matrix
        assert matrices_equal(lhs, rhs, atol=1e-12)

    def test_kept_subsystems_stay_in_original_order(self, rng):
        a = DensityMatrix(qubit_space("a"), ginibre_matrix(rng, 2))
        b = DensityMatrix(qubit_space("b"), ginibre_matrix(rng, 2))
        c = DensityMatrix(qubit_space("c"), ginibre_matrix(rng, 2))
        joint = tensor_product(tensor_product(a, b), c)
        reduced = partial_trace(joint, ["c", "a"])  # request out of order
        assert reduced.space.labels == ("a", "c")
        assert matrices_equal(reduced.matrix, np.kron(a.matrix, c.matrix), atol=1e-12)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown subsystem"):
            partial_trace(bell_state("psi_minus"), ["nope"])

    @pytest.mark.parametrize("keep, message", [
        (["q0", "q0"], "duplicate labels in keep list: ['q0', 'q0']"),
        ([], "must keep at least one subsystem"),
        (["nope"], "unknown subsystem label 'nope'; have ('q0', 'q1')"),
    ], ids=["duplicate", "empty", "unknown"])
    def test_keep_list_messages(self, keep, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            partial_trace(bell_state("psi_minus"), keep)


class TestEmbed:
    def test_single_qubit_placement(self):
        space = qubit_space("a", "b")
        assert matrices_equal(embed(PAULI_X, space, ["b"]), np.kron(ID2, PAULI_X), atol=0)
        assert matrices_equal(embed(PAULI_X, space, ["a"]), np.kron(PAULI_X, ID2), atol=0)

    def test_reversed_two_qubit_placement(self, rng):
        space = qubit_space("a", "b")
        op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        swapped = embed(op, space, ["b", "a"])
        perm = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
        assert matrices_equal(swapped, perm @ op @ perm, atol=1e-12)


# The array entry points that factor their argument; both share one check.
# (concurrence and fidelity take a DensityMatrix, which cannot hold such a matrix.)
_METRICS = (_psd_factor, lambda m: concurrences(m[None]))


def _two_qubit(m) -> DensityMatrix:
    return DensityMatrix(qubit_space("a", "b"), m)


class TestPsdFactor:
    """The one checked eigendecomposition behind concurrence and fidelity."""

    def test_identity(self):
        phi = _psd_factor(np.eye(3))
        assert matrices_equal(phi.conj().T @ phi, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        # eigenvectors are the basis vectors up to phase
        assert matrices_equal(np.abs(_psd_factor(np.diag([4.0, 9.0]))), np.diag([2.0, 3.0]), atol=1e-12)

    def test_pure_state_has_rank_one(self):
        phi = _psd_factor(bell_state("phi_plus").matrix)
        assert np.max(np.abs(phi[:, :3])) <= 1e-8
        assert abs(np.vdot(phi[:, 3], [1, 0, 0, 1])) ** 2 / 2 == pytest.approx(1.0, abs=1e-12)

    def test_square_recovers_input(self, rng):
        stack = np.array([ginibre_matrix(rng, 5) for _ in range(3)])
        phi = _psd_factor(stack)
        assert np.max(np.abs(phi @ phi.conj().swapaxes(1, 2) - stack)) <= 1e-12

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([0.5, 0.5 + 1e-6, 0.0, -1e-6])
        for metric in _METRICS:
            with pytest.raises(ValueError, match="positive semidefinite"):
                metric(m)

    def test_tiny_negative_clamped(self):
        # an eigenvalue of -1e-10 counts as 0: the state acts as the pure |00>
        m = np.diag([1.0 + 1e-10, 0.0, 0.0, -1e-10])
        assert _psd_factor(m)[3, 0] == 0.0
        assert concurrence(_two_qubit(m)) == 0.0
        pure = _two_qubit(np.diag([1.0, 0.0, 0.0, 0.0]))
        assert fidelity(_two_qubit(m), pure) == pytest.approx(1.0, abs=1e-12)

    def test_non_hermitian_rejected(self):
        m = np.eye(4) / 4
        m[0, 1] = 1e-6
        for metric in _METRICS:
            with pytest.raises(ValueError, match="Hermitian"):
                metric(m)

    def test_nan_rejected(self):
        m = np.eye(4) / 4
        m[2, 2] = np.nan
        for metric in _METRICS:
            with pytest.raises(ValueError, match="Hermitian"):
                metric(m)


class TestBellAndWerner:
    def test_singlet_entries(self):
        m = bell_state("psi_minus").matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert matrices_equal(m, expected, atol=1e-12)

    def test_orthogonal_pairs(self):
        assert fidelity(bell_state("psi_plus"), bell_state("psi_minus")) <= 1e-12

    def test_phi_plus_maximally_entangled(self):
        assert concurrence(bell_state("phi_plus")) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown Bell state"):
            bell_state("sigma_minus")

    def test_werner_limits(self):
        assert states_close(werner_state(1.0), bell_state("psi_minus"))
        assert matrices_equal(werner_state(0.0).matrix, np.eye(4) / 4, atol=1e-12)

    def test_werner_range_error(self):
        with pytest.raises(ValueError, match="outside"):
            werner_state(1.2)

    def test_werner_fidelity_analytic(self):
        assert fidelity(werner_state(0.94), bell_state("psi_minus")) == pytest.approx(0.955, abs=1e-9)
        assert fidelity(werner_state(0.5), bell_state("psi_minus")) == pytest.approx(0.625, abs=1e-9)

    def test_werner_concurrence_analytic(self):
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.94, 1.0):
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert concurrence(werner_state(p)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("kind", BELL_LABELS)
    def test_bell_state_bit_identical_to_from_ket(self, kind):
        for labels in (("q0", "q1"), ("a3", "b3")):
            rho, ref = bell_state(kind, labels), bell_state_from_ket(kind, labels)
            assert rho.space == ref.space
            assert np.array_equal(rho.matrix, ref.matrix)

    @pytest.mark.parametrize(
        "p", [0.0, 1.0 / 3.0, 0.5, 0.94, 1.0, *np.random.default_rng(2501).uniform(0.0, 1.0, 5)]
    )
    def test_werner_state_bit_identical_to_from_ket_singlet(self, p):
        rho, ref = werner_state(p, ("a", "b")), werner_state_from_ket(p, ("a", "b"))
        assert rho.space == ref.space
        assert np.array_equal(rho.matrix, ref.matrix)

    def test_projector_table_is_read_only_and_never_returned(self):
        assert tuple(qcore._BELL_PROJECTORS) == BELL_LABELS
        for kind, proj in qcore._BELL_PROJECTORS.items():
            assert not proj.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                proj[0, 0] = 1.0
            for rho in (bell_state(kind), werner_state(1.0), werner_state(0.0)):
                assert not np.shares_memory(proj, rho.matrix)

    @pytest.mark.parametrize("labels", [(), ("a",), ("a", "b", "c")])
    def test_two_labels_required(self, labels):
        message = re.escape(f"a two-qubit state needs exactly two labels, got {labels!r}")
        with pytest.raises(ValueError, match=message):
            bell_state("psi_minus", labels)
        with pytest.raises(ValueError, match=message):
            werner_state(0.9, labels)


class TestConcurrence:
    def test_singlet_is_one(self):
        assert concurrence(bell_state("psi_minus")) == pytest.approx(1.0, abs=1e-10)

    def test_separable_is_zero(self):
        space = qubit_space("a", "b")
        rho = DensityMatrix.from_ket(space, basis_ket(space, (0, 1)))
        assert concurrence(rho) == 0.0

    def test_werner_boundary(self):
        assert concurrence(werner_state(1.0 / 3.0)) == pytest.approx(0.0, abs=1e-8)

    def test_shape_error(self):
        with pytest.raises(ValueError, match="4x4"):
            concurrence(DensityMatrix(qubit_space("a", "b", "c"), np.eye(8) / 8))
        with pytest.raises(ValueError, match="4x4"):
            concurrences(np.eye(8)[None] / 8)

    def test_pure_states_match_closed_form(self, rng):
        # Wootters: C(|psi>) = |psi^T (Y x Y) psi|
        for _ in range(200):
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            expected = abs(v @ np.kron(PAULI_Y, PAULI_Y) @ v)
            assert concurrence(_two_qubit(np.outer(v, v.conj()))) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_oracle(self, rng):
        # factor route vs the general-eigenvalue route on 200 mixed states
        for _ in range(200):
            m = ginibre_matrix(rng, 4)
            assert concurrence(_two_qubit(m)) == pytest.approx(concurrence_oracle(m), abs=1e-6)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_two_qubit(rng)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pure_states(self):
        space = qubit_space("a", "b")
        r0 = DensityMatrix.from_ket(space, basis_ket(space, (0, 0)))
        r1 = DensityMatrix.from_ket(space, basis_ket(space, (1, 1)))
        assert fidelity(r0, r1) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(werner_state(0.0), DensityMatrix(qubit_space("a"), np.eye(2) / 2))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, seed):
        r = np.random.default_rng(seed)
        a, b = _two_qubit(ginibre_matrix(r, 4)), _two_qubit(ginibre_matrix(r, 4))
        assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pure_state_overlap(self, seed):
        r = np.random.default_rng(seed)
        space = qubit_space("a", "b")
        v = r.normal(size=4) + 1j * r.normal(size=4)
        w = r.normal(size=4) + 1j * r.normal(size=4)
        v, w = v / np.linalg.norm(v), w / np.linalg.norm(w)
        overlap = abs(np.vdot(v, w)) ** 2
        f = fidelity(DensityMatrix.from_ket(space, v), DensityMatrix.from_ket(space, w))
        assert f == pytest.approx(overlap, abs=1e-9)
