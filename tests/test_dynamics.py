"""Node Hamiltonians, collapse operators and master-equation integration."""
import math

import numpy as np
import pytest

from magrep import dynamics
from magrep.dynamics import (
    IntegrationError,
    LindbladParams,
    build_full_hamiltonian,
    build_rwa_hamiltonian,
    collapse_operators,
    default_step,
    destroy,
    evolve,
    generate_bell_pair,
    initial_pair_state,
    lindblad_rhs,
    node_space,
    pair_generation_time,
    rk4_step_matrix,
    target_pair_ket,
    _check_records,
    _dense_cost,
    _liouvillian,
    _matrix_free_cost,
    _propagate_dense,
    _propagate_matrix_free,
    _segments,
)
from magrep.qcore import basis_ket, concurrences, fidelity
from helpers import ginibre_matrix, pair_target, single_excitation_block, states_close

def ideal_params(**overrides) -> LindbladParams:
    return LindbladParams(kappa_d=0.0, gamma_d=0.0, kappa_phi=0.0, gamma_phi=0.0, **overrides)


def _exact_number_operator(p: LindbladParams) -> np.ndarray:
    """Total excitation number with exact integer entries."""
    n_m = np.diag(np.arange(p.dim_m, dtype=float))
    n_c = np.diag(np.arange(p.dim_c, dtype=float))
    return np.kron(n_m, np.eye(p.dim_c)) + np.kron(np.eye(p.dim_m), n_c)


class TestParams:
    def test_defaults_are_strong_coupling(self):
        # the coupling exceeds half the summed dissipation rates
        p = LindbladParams()
        assert p.g_mc > (p.kappa_d + p.kappa_phi + p.gamma_d + p.gamma_phi) / 2.0

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="kappa_d"):
            LindbladParams(kappa_d=-1.0)

    def test_non_finite_rate_rejected(self):
        with pytest.raises(ValueError, match="g_mc must be finite"):
            LindbladParams(g_mc=float("nan"))
        with pytest.raises(ValueError, match="kappa_d must be finite"):
            LindbladParams(kappa_d=float("inf"))

    def test_truncation_bounds(self):
        with pytest.raises(ValueError, match="dim_c"):
            LindbladParams(dim_c=1)


class TestHamiltonians:
    def test_decoupled_full_hamiltonian_is_diagonal(self):
        h = build_full_hamiltonian(LindbladParams(g_mc=0.0))
        assert np.array_equal(h, np.diag(np.diag(h)))

    def test_exchange_matrix_element(self):
        p = LindbladParams()
        space = node_space(p)
        bra = basis_ket(space, (0, 1))
        ket = basis_ket(space, (1, 0))
        for h in (build_full_hamiltonian(p), build_rwa_hamiltonian(p)):
            assert bra.conj() @ h @ ket == pytest.approx(p.g_mc, rel=1e-12)

    def test_exact_hermiticity(self):
        for p in (LindbladParams(), LindbladParams(dim_c=3, dim_m=4)):
            h = build_full_hamiltonian(p)
            assert np.array_equal(h, h.conj().T)

    def test_rwa_swaps_single_excitation(self):
        p = LindbladParams()
        space = node_space(p)
        h = build_rwa_hamiltonian(p)
        out = h @ basis_ket(space, (0, 1))
        assert np.allclose(out, p.g_mc * basis_ket(space, (1, 0)), atol=1e-6)

    def test_rwa_annihilates_vacuum(self):
        p = LindbladParams()
        h = build_rwa_hamiltonian(p)
        assert np.all(h @ basis_ket(node_space(p), (0, 0)) == 0)

    def test_rwa_commutes_with_excitation_number(self):
        for p in (LindbladParams(), LindbladParams(dim_c=3, dim_m=3)):
            n_total = _exact_number_operator(p)
            h = build_rwa_hamiltonian(p)
            assert np.max(np.abs(h @ n_total - n_total @ h)) <= 1e-12

    def test_rwa_block_structure(self):
        # no matrix elements between different total-excitation sectors
        p = LindbladParams(dim_c=3, dim_m=3)
        h = build_rwa_hamiltonian(p)
        n_diag = np.diag(_exact_number_operator(p)).real
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                if abs(n_diag[i] - n_diag[j]) > 0.5:
                    assert h[i, j] == 0


class TestCollapseOperators:
    def test_four_operators_with_rates(self):
        # every unscaled operator has unit spectral norm at a 2x2 truncation
        p = LindbladParams()
        ops = collapse_operators(p)
        assert ops.shape == (4, 4, 4)
        norms = [np.linalg.norm(op, 2) ** 2 for op in ops]
        assert norms == pytest.approx([p.kappa_d, p.gamma_d, p.kappa_phi, p.gamma_phi],
                                      rel=1e-12)

    def test_zero_rates_give_zero_matrices(self):
        ops = collapse_operators(ideal_params())
        assert ops.shape == (4, 4, 4)
        assert np.all(ops == 0)

    def test_cavity_decay_action(self):
        p = LindbladParams()
        space = node_space(p)
        decay = collapse_operators(p)[0]
        out = decay @ basis_ket(space, (0, 1))
        assert np.allclose(out, math.sqrt(p.kappa_d) * basis_ket(space, (0, 0)), rtol=1e-12)

    def test_dephasing_operators_are_diagonal(self):
        ops = collapse_operators(LindbladParams(dim_c=3, dim_m=2))
        for op in ops[2:]:
            assert np.array_equal(op, np.diag(np.diag(op)))


class TestLindbladRHS:
    def test_vacuum_is_dark_under_decay(self):
        dim = 2
        a = destroy(dim)
        vac = np.zeros((dim, dim), dtype=complex)
        vac[0, 0] = 1.0
        out = lindblad_rhs(vac, np.zeros((dim, dim)), np.array([math.sqrt(0.3) * a]))
        assert np.max(np.abs(out)) <= 1e-15

    def test_maximally_mixed_fixed_under_dephasing(self):
        p = LindbladParams(kappa_d=0.0, gamma_d=0.0)
        dim = node_space(p).dim
        rho = np.eye(dim, dtype=complex) / dim
        out = lindblad_rhs(rho, np.zeros((dim, dim)), collapse_operators(p))
        assert np.max(np.abs(out)) <= 1e-9

    def test_traceless_on_random_inputs(self, rng):
        # generator property checked at O(1) operator scale
        h = ginibre_matrix(rng, 4) * 4.0
        ops = rng.normal(size=(3, 4, 4)) + 1j * rng.normal(size=(3, 4, 4))
        for _ in range(100):
            rho = ginibre_matrix(rng, 4)
            out = lindblad_rhs(rho, h, ops)
            assert abs(out.trace()) <= 1e-10

    def test_relative_trace_error_at_physical_scale(self, rng):
        p = LindbladParams()
        h = build_rwa_hamiltonian(p)
        ops = collapse_operators(p)
        for _ in range(20):
            out = lindblad_rhs(ginibre_matrix(rng, 4), h, ops)
            assert abs(out.trace()) <= 1e-12 * np.max(np.abs(out))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            lindblad_rhs(np.eye(4) / 4, np.eye(2), np.zeros((0, 4, 4)))


class TestEvolve:
    def test_ideal_quarter_period_hits_target(self):
        p = ideal_params()
        trace = evolve(initial_pair_state(p), p, pair_generation_time(p))
        assert fidelity(trace.final_state, pair_target(p)) >= 0.999

    def test_ideal_trace_concurrence_matches_x_state_closed_form(self):
        # the states of `magrep pair --ideal`; for an X state
        # C = 2 max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))
        p = LindbladParams().without_dissipation()
        states = evolve(initial_pair_state(p), p, 3 * math.pi / (4 * p.g_mc)).states
        assert len(states) == 473
        assert np.max(np.abs(states[:, [0, 0, 1, 2], [1, 2, 3, 3]])) <= 1e-15
        pops = states.diagonal(axis1=1, axis2=2).real
        expected = 2 * np.maximum.reduce([
            np.zeros(len(states)),
            np.abs(states[:, 0, 3]) - np.sqrt(pops[:, 1] * pops[:, 2]),
            np.abs(states[:, 1, 2]) - np.sqrt(pops[:, 0] * pops[:, 3]),
        ])
        assert np.max(np.abs(concurrences(states) - expected)) <= 1e-12

    def test_zero_generator_keeps_state_constant(self):
        p = ideal_params(g_mc=0.0)
        rho0 = initial_pair_state(p)
        trace = evolve(rho0, p, 1e-8, dt=1e-10)
        assert states_close(trace.final_state, rho0, atol=1e-12)

    def test_rabi_return_after_full_period(self):
        p = ideal_params()
        trace = evolve(initial_pair_state(p), p, math.pi / p.g_mc)
        assert trace.populations[-1][1] == pytest.approx(1.0, abs=1e-4)

    def test_excitation_conserved_in_ideal_limit(self):
        p = ideal_params()
        n_total = _exact_number_operator(p).real
        trace = evolve(initial_pair_state(p), p, pair_generation_time(p), record_every=10)
        occupations = trace.populations @ np.diag(n_total)
        assert np.max(np.abs(occupations - occupations[0])) <= 1e-8

    def test_recorded_invariants_under_loss(self):
        p = LindbladParams()
        trace = evolve(initial_pair_state(p), p, 3 * math.pi / (4 * p.g_mc))
        assert np.max(trace.trace_errors) <= 1e-6
        assert np.max(trace.herm_errors) <= 1e-8
        assert np.min(trace.min_eigenvalues) >= -1e-7
        assert np.all(np.diff(trace.times) > 0)
        assert trace.times[-1] == pytest.approx(3 * math.pi / (4 * p.g_mc), rel=1e-12)

    def test_step_halving_convergence(self):
        p = LindbladParams()
        t = pair_generation_time(p)
        dt = default_step(p, "rwa")
        target = pair_target(p)
        f1 = fidelity(evolve(initial_pair_state(p), p, t, dt=dt).final_state, target)
        f2 = fidelity(evolve(initial_pair_state(p), p, t, dt=dt / 2).final_state, target)
        assert abs(f1 - f2) < 1e-6

    def test_step_matrix_matches_explicit_stages(self, rng):
        # one classical 4th-order step written out stage by stage
        p = LindbladParams()
        h = build_rwa_hamiltonian(p)
        ops = collapse_operators(p)
        dt = default_step(p, "rwa")
        rho = ginibre_matrix(rng, 4)
        k1 = lindblad_rhs(rho, h, ops)
        k2 = lindblad_rhs(rho + dt / 2 * k1, h, ops)
        k3 = lindblad_rhs(rho + dt / 2 * k2, h, ops)
        k4 = lindblad_rhs(rho + dt * k3, h, ops)
        expected = rho + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)

        step = rk4_step_matrix(_liouvillian(h, collapse_operators(p)), dt)
        got = (step @ rho.reshape(-1)).reshape(4, 4)
        assert np.max(np.abs(got - expected)) <= 1e-12

    def test_unstable_step_is_caught_by_validation(self):
        p = LindbladParams()
        with pytest.raises(IntegrationError, match="positive semidefinite"):
            evolve(initial_pair_state(p), p, 1e-6, dt=1e-6)

    def test_higher_truncation_drops_concurrence(self):
        p = LindbladParams(dim_c=3, dim_m=3)
        trace = evolve(initial_pair_state(p), p, pair_generation_time(p), record_every=50)
        assert trace.populations.shape[1] == 9
        with pytest.raises(ValueError, match="two-qubit"):
            concurrences(trace.states)

    def test_space_mismatch_rejected(self):
        p = LindbladParams()
        other = LindbladParams(dim_c=3)
        with pytest.raises(ValueError, match="expected"):
            evolve(initial_pair_state(other), p, 1e-9)

    def test_bad_time_arguments(self):
        p = LindbladParams()
        rho0 = initial_pair_state(p)
        with pytest.raises(ValueError, match="t_final"):
            evolve(rho0, p, 1e-12, dt=1e-9)
        with pytest.raises(ValueError, match="dt"):
            evolve(rho0, p, 1e-9, dt=0.0)
        with pytest.raises(ValueError, match="record_every"):
            evolve(rho0, p, 1e-9, record_every=0)
        with pytest.raises(ValueError, match=r"^record_every must be an integer >= 1, got 1\.5$"):
            evolve(rho0, p, 1e-9, record_every=1.5)

    def test_default_step_needs_a_scale(self):
        frozen = ideal_params(g_mc=0.0)
        with pytest.raises(ValueError, match="default step"):
            default_step(frozen, "rwa")


def _random_model(rng, dim: int, n_jumps: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Random Hermitian H and collapse operators at O(1) operator scale."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    jumps = rng.normal(size=(n_jumps, dim, dim)) + 1j * rng.normal(size=(n_jumps, dim, dim))
    return g + g.conj().T, jumps / math.sqrt(dim)


class TestPropagationCore:
    @pytest.mark.parametrize("dim", [4, 9, 16, 25])
    def test_closed_form_generator_matches_column_reference(self, rng, dim):
        h, jumps = _random_model(rng, dim)
        reference = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in range(dim * dim):
            unit = np.zeros((dim, dim), dtype=complex)
            unit.flat[k] = 1.0
            reference[:, k] = lindblad_rhs(unit, h, list(jumps)).reshape(-1)
        gen = _liouvillian(h, jumps)
        assert np.max(np.abs(gen - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_matrix_free_step_matches_dense_step(self, rng):
        dim = 9
        h, jumps = _random_model(rng, dim)
        rho = ginibre_matrix(rng, dim)
        segments = _segments(40, 7)
        dense = _propagate_dense(rho, h, jumps, 0.01, segments)
        free = _propagate_matrix_free(rho, h, jumps, 0.01, segments)
        assert dense.shape == free.shape == (len(segments) + 1, dim, dim)
        assert np.max(np.abs(dense - free)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("dim", [3, 4, 5])
    def test_rwa_pair_stays_in_single_excitation_block(self, dim):
        # RWA conserves excitation number, so the exact two-level-block solution
        # holds at any truncation; dims 4 and 5 take the matrix-free path.
        p = LindbladParams(dim_c=dim, dim_m=dim)
        state, _ = generate_bell_pair(p)
        t = pair_generation_time(p)
        aa, bb, ab = single_excitation_block(p.g_mc, p.kappa_d, p.gamma_d,
                                             p.kappa_phi, p.gamma_phi, [t])
        a, b = 1, dim  # |0_m 1_c> and |1_m 0_c> in the basis n_m * dim_c + n_c
        exact = np.zeros((dim * dim, dim * dim), dtype=complex)
        exact[a, a], exact[b, b], exact[a, b] = aa[0], bb[0], ab[0]
        exact[b, a] = np.conj(ab[0])
        exact[0, 0] = 1.0 - aa[0] - bb[0]
        assert np.max(np.abs(state.matrix - exact)) <= 1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_block_propagation_matches_stepping(self, dim):
        p = LindbladParams(dim_c=dim, dim_m=dim)
        t = pair_generation_time(p)
        n_steps = math.ceil(t / default_step(p, "full") - 1e-9)
        record_every = n_steps // 64
        trace = evolve(initial_pair_state(p), p, t, record_every=record_every,
                       hamiltonian="full")
        step = rk4_step_matrix(_liouvillian(build_full_hamiltonian(p), collapse_operators(p)),
                               t / n_steps)
        v = initial_pair_state(p).matrix.reshape(-1)
        stepped = [v]
        for k in range(1, n_steps + 1):
            v = step @ v
            if k % record_every == 0 or k == n_steps:
                stepped.append(v)
        assert len(stepped) == len(trace.times)
        stepped_pops = np.array([np.diag(x.reshape(dim * dim, -1)).real for x in stepped])
        assert np.max(np.abs(trace.populations - stepped_pops)) <= 1e-11
        assert np.max(np.abs(trace.final_state.matrix - stepped[-1].reshape(dim * dim, -1))) <= 1e-11

    def test_cost_model_picks_the_measured_faster_path(self):
        # RWA pair: 158 steps recorded every 2; full Hamiltonian: 24,481 every 382
        rwa, full = _segments(158, 2), _segments(24481, 382)
        assert _dense_cost(9, rwa) < _matrix_free_cost(9, 4, 158)
        assert _dense_cost(25, rwa) > _matrix_free_cost(25, 4, 158)
        for dim in (4, 9, 16):
            assert _dense_cost(dim, full) < _matrix_free_cost(dim, 4, 24481)

    def test_record_checks_fail_on_nan_and_name_the_time(self):
        states = np.array([np.eye(2, dtype=complex) / 2] * 3)
        times = np.array([0.0, 1e-9, 2e-9])
        _check_records(states, times)
        states[2, 0, 1] = np.nan
        with pytest.raises(IntegrationError, match="non-finite.*t=2.000e-09"):
            _check_records(states, times)
        states[1, 0, 1] = 1e-6
        with pytest.raises(IntegrationError, match="not Hermitian.*t=1.000e-09"):
            _check_records(states, times)


    def test_one_positivity_floor_at_every_truncation(self):
        # an eigenvalue of -5e-8 on a 3x3-mode state: inside no floor, for any D
        p = LindbladParams(dim_c=3, dim_m=3)
        states = np.diag([1.0 + 5e-8] + [0.0] * 7 + [-5e-8]).astype(complex)[None]
        times = np.array([0.0])
        with pytest.raises(IntegrationError, match="positive semidefinite: min eigenvalue -5.000e-08"):
            _check_records(states, times)
        trace = dynamics.EvolutionTrace(
            space=node_space(p), times=times, states=states,
            trace_errors=np.zeros(1), herm_errors=np.zeros(1), min_eigenvalues=np.array([-5e-8]),
        )
        with pytest.raises(ValueError, match="positive semidefinite"):
            trace.final_state


def _one_pass_margins(states: np.ndarray):
    """The record margins of the whole stack in one batched pass, as evolve once took them."""
    adjoint = states.conj().swapaxes(1, 2)
    return (np.abs(np.trace(states, axis1=1, axis2=2) - 1.0),
            np.max(np.abs(states - adjoint), axis=(1, 2)),
            np.linalg.eigvalsh(0.5 * (states + adjoint))[:, 0])


class TestRecordChecksInBlocks:
    # A 5x5 record is 10,000 bytes, so _CHECK_BLOCK_BYTES holds 13 of them.
    PER_BLOCK = dynamics._CHECK_BLOCK_BYTES // (25 * 25 * 16)

    def mixed_stack(self, n: int):
        states = np.array([np.eye(25, dtype=complex) / 25] * n)
        return states, np.arange(n) * 1e-9

    def test_margins_equal_one_batched_pass_bit_for_bit(self):
        p = LindbladParams(dim_c=5, dim_m=5)
        trace = evolve(initial_pair_state(p), p, pair_generation_time(p), record_every=2)
        assert self.PER_BLOCK == 13 and len(trace.states) % self.PER_BLOCK != 0
        margins = _check_records(trace.states, trace.times)
        expected = _one_pass_margins(trace.states)
        for got, want, stored in zip(margins, expected, (
                trace.trace_errors, trace.herm_errors, trace.min_eigenvalues)):
            assert got.tobytes() == want.tobytes() == stored.tobytes()

    def test_earliest_failure_across_blocks_raises(self):
        states, times = self.mixed_stack(3 * self.PER_BLOCK)
        states[2 * self.PER_BLOCK + 1, 0, 1] = np.nan
        earlier = self.PER_BLOCK + 4
        states[earlier, 3, 3], states[earlier, 4, 4] = -1e-3, 0.08 + 1e-3
        with pytest.raises(IntegrationError,
                           match=f"min eigenvalue -1.000e-03 at t={times[earlier]:.3e} s"):
            _check_records(states, times)
        states[5, 0, 1] = 1e-6
        with pytest.raises(IntegrationError, match="not Hermitian: max deviation 1.000e-06 at t=5.000e-09 s"):
            _check_records(states, times)

    @pytest.mark.parametrize("entry, magnitude", [(np.nan, "nan"), (np.inf, "inf")])
    def test_non_finite_record_in_a_later_block(self, entry, magnitude):
        states, times = self.mixed_stack(2 * self.PER_BLOCK + 3)
        states[-1, 2, 4] = entry
        with pytest.raises(IntegrationError, match=(
                f"non-finite state entry, largest magnitude {magnitude} at t={times[-1]:.3e} s")):
            _check_records(states, times)


class TestGenerateBellPair:
    def test_ideal_limit(self):
        _, fid = generate_bell_pair(ideal_params())
        assert fid >= 0.999

    def test_lossy_pair_structure(self):
        state, fid = generate_bell_pair(LindbladParams())
        diag = state.matrix.diagonal().real
        assert 0.99 < fid < 1.0
        assert abs(diag[1] - diag[2]) < 0.01
        assert diag[3] <= 1e-6
        coherence = state.matrix[1, 2]
        assert abs(coherence.real) < 1e-3
        assert 0.4 < coherence.imag <= 0.5

    def test_full_hamiltonian_agrees_with_rwa(self):
        p = LindbladParams()
        _, f_rwa = generate_bell_pair(p, hamiltonian="rwa")
        _, f_full = generate_bell_pair(p, hamiltonian="full")
        assert abs(f_rwa - f_full) < 0.01

    @pytest.mark.parametrize("ghz", [10, 20, 40])
    def test_rwa_error_is_second_order_in_coupling_over_frequency(self, ghz):
        # The 2x2 checks above cannot fail: at that truncation the counter-rotating
        # terms cannot act on |0_m 1_c>, since m^dag c^dag needs |2_c>. Lossless at
        # dim 4 (within 0.8 % of dims 5 and 6) the RWA reaches the target, while the
        # full model misses it by (g/omega)^2 to leading order. The next correction is
        # one order higher in g/omega, so the ratio's distance from 1 shrinks with it:
        # converged ratios 0.975, 0.997, 1.004 at 10, 20, 40 GHz lie within 2 g/omega
        # of 1, and the band allows 4 g/omega (0.052, 0.026, 0.013). A first-order
        # error, a wrong prefactor or no counter-rotating effect at all falls outside.
        omega = 2 * math.pi * ghz * 1e9
        p = LindbladParams(omega_c=omega, omega_m=omega, dim_c=4, dim_m=4).without_dissipation()
        _, f_rwa = generate_bell_pair(p, hamiltonian="rwa")
        _, f_full = generate_bell_pair(p, hamiltonian="full")
        assert 1 - f_rwa < 1e-9
        ratio = (1 - f_full) / (p.g_mc / omega) ** 2
        assert abs(ratio - 1) < 4 * p.g_mc / omega

    def test_peak_sits_at_quarter_period(self):
        p = LindbladParams()
        trace = evolve(initial_pair_state(p), p, 3 * math.pi / (4 * p.g_mc))
        t_star = trace.times[int(np.argmax(concurrences(trace.states)))]
        assert t_star == pytest.approx(pair_generation_time(p), rel=0.05)

    @pytest.mark.parametrize("hamiltonian, dim", [("rwa", 2), ("rwa", 4), ("full", 3)])
    def test_fidelity_is_the_overlap_with_the_pure_target(self, hamiltonian, dim):
        p = LindbladParams(dim_c=dim, dim_m=dim)
        state, fid = generate_bell_pair(p, hamiltonian=hamiltonian)
        ket = target_pair_ket(p)
        assert fid == float(np.real(ket.conj() @ state.matrix @ ket))
        assert fid == pytest.approx(fidelity(state, pair_target(p)), abs=1e-12)

    def test_unknown_hamiltonian_choice(self):
        with pytest.raises(ValueError, match="rwa"):
            generate_bell_pair(LindbladParams(), hamiltonian="exact")

    def test_full_hamiltonian_fidelity_converges_in_truncation(self):
        # default parameters: F = 0.9939163415 (dim 3), 0.9939079813 (4), 0.9939071745 (5)
        f3, f4, f5 = (
            generate_bell_pair(LindbladParams(dim_c=d, dim_m=d), hamiltonian="full")[1]
            for d in (3, 4, 5)
        )
        assert abs(f4 - f5) < abs(f3 - f4)
        assert abs(f4 - f5) < 1e-6
