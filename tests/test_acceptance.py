"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is tuned at runtime.

Criteria 01 and 02 check the lossy pair twice. At the stated rates the program
must match the exact single-excitation solution (``single_excitation_block``
in helpers) to ``ORACLE_ATOL``. The external figure bands (peak concurrence
0.97 +/- 0.02, snapshot populations in [0.46, 0.50], coherence 0.47 +/- 0.02)
do not hold for the stated rates; they are applied to the same model with all
four rates times 2 pi, the reading the README gives, and that run must match
the oracle too.
"""
import math
import time

import numpy as np
import pytest

from magrep import dynamics, network, qcore, swap
from magrep.config import parse_config_text, scenario_to_config
from magrep.dynamics import LindbladParams
from magrep.network import BUILTIN_SCENARIOS, NoiseModel
from magrep.qcore import bell_state, concurrences, fidelity, tensor_product, werner_state
from helpers import (
    brute_force_bsm,
    exact_chain_state,
    ginibre_matrix,
    pair_target,
    single_excitation_block,
)

RNG_SEED = 424242
# Program vs exact oracle for the lossy pair. The RK4 step is about 3e-10 off
# the exact propagator here; a 3rd-order step (3e-8 to 2e-7) or one rate off
# by 0.1 % (2e-7 and more) is not.
ORACLE_ATOL = 1e-8
RATE_NAMES = ("kappa_d", "gamma_d", "kappa_phi", "gamma_phi")


def _check(num: int, description: str, clauses: list[tuple[str, bool]]) -> None:
    ok = all(passed for _, passed in clauses)
    detail = "; ".join(f"{text} [{'ok' if passed else 'FAIL'}]" for text, passed in clauses)
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {description}: {detail}")
    assert ok, f"criterion {num}: {description}: {detail}"


@pytest.fixture(scope="module")
def fig_params() -> LindbladParams:
    return LindbladParams()  # 10 GHz resonance, g/2pi = 130 MHz, stated losses


@pytest.fixture(scope="module")
def band_params(fig_params) -> LindbladParams:
    """The stated parameter set with all four dissipation rates times 2 pi."""
    return fig_params.replace(
        **{name: 2.0 * math.pi * getattr(fig_params, name) for name in RATE_NAMES}
    )


def _timed_generation_run(p: LindbladParams):
    start = time.perf_counter()
    trace = dynamics.evolve(
        dynamics.initial_pair_state(p), p, 3.0 * math.pi / (4.0 * p.g_mc)
    )
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def generation_run(fig_params):
    return _timed_generation_run(fig_params)


@pytest.fixture(scope="module")
def band_generation_run(band_params):
    return _timed_generation_run(band_params)


@pytest.fixture(scope="module")
def heralded_pair(fig_params):
    return dynamics.generate_bell_pair(fig_params)


@pytest.fixture(scope="module")
def band_heralded_pair(band_params):
    return dynamics.generate_bell_pair(band_params)


def _oracle(p: LindbladParams, times):
    return single_excitation_block(
        p.g_mc, p.kappa_d, p.gamma_d, p.kappa_phi, p.gamma_phi, times
    )


def _oracle_concurrence(p: LindbladParams, times) -> np.ndarray:
    return 2.0 * np.abs(_oracle(p, times)[2])


def _oracle_snapshot(p: LindbladParams) -> np.ndarray:
    """Exact state at the quarter period in the basis |00>, |0_m 1_c>, |1_m 0_c>, |11>."""
    (aa,), (bb,), (ab,) = _oracle(p, [dynamics.pair_generation_time(p)])
    rho = np.diag([1.0 - aa - bb, aa, bb, 0.0]).astype(complex)
    rho[1, 2], rho[2, 1] = ab, np.conj(ab)
    return rho


def test_criterion_01_pair_generation_peak_concurrence(
    fig_params, band_params, generation_run, band_generation_run
):
    trace, elapsed = generation_run
    conc = concurrences(trace.states)
    exact = _oracle_concurrence(fig_params, trace.times)
    dev = float(np.max(np.abs(conc - exact)))
    band_trace, _ = band_generation_run
    band_exact = _oracle_concurrence(band_params, band_trace.times)
    band_conc = concurrences(band_trace.states)
    band_dev = float(np.max(np.abs(band_conc - band_exact)))
    band_peak = float(band_conc.max())
    _check(
        1,
        "lossy pair concurrence over 3/4 exchange period: stated rates match the exact "
        "oracle; rates x 2pi meet the 0.97 +/- 0.02 peak band; stated run under 10 s",
        [
            (
                f"stated rates: program peak={conc.max():.6f}, "
                f"oracle peak={exact.max():.6f}, max |program - oracle| over "
                f"{len(trace.times)} recorded times={dev:.2e} <= {ORACLE_ATOL:.0e}",
                dev <= ORACLE_ATOL,
            ),
            (
                f"rates x 2pi: program peak={band_peak:.4f} in [0.95, 0.99]",
                abs(band_peak - 0.97) <= 0.02,
            ),
            (
                f"rates x 2pi: oracle peak={band_exact.max():.6f}, max |program - oracle| "
                f"over {len(band_trace.times)} recorded times={band_dev:.2e} <= {ORACLE_ATOL:.0e}",
                band_dev <= ORACLE_ATOL,
            ),
            (f"stated rates: runtime={elapsed:.2f}s < 10s", elapsed < 10.0),
        ],
    )


def test_criterion_02_density_matrix_snapshot(
    fig_params, band_params, heralded_pair, band_heralded_pair
):
    state, _ = heralded_pair
    exact = _oracle_snapshot(fig_params)
    dev = float(np.max(np.abs(state.matrix - exact)))
    band_state, _ = band_heralded_pair
    band_exact = _oracle_snapshot(band_params)
    band_dev = float(np.max(np.abs(band_state.matrix - band_exact)))
    pops = band_state.matrix.diagonal().real
    coh = abs(band_state.matrix[1, 2])
    _check(
        2,
        "snapshot at quarter period: stated rates match the exact oracle; rates x 2pi meet "
        "the populations [0.46, 0.50] and coherence 0.47 +/- 0.02 bands",
        [
            (
                f"stated rates: program pop_01={state.matrix[1, 1].real:.6f}, "
                f"pop_10={state.matrix[2, 2].real:.6f}, |coherence|={abs(state.matrix[1, 2]):.6f}; "
                f"oracle {exact[1, 1].real:.6f}, {exact[2, 2].real:.6f}, {abs(exact[1, 2]):.6f}; "
                f"max |program - oracle| over all 16 entries={dev:.2e} <= {ORACLE_ATOL:.0e}",
                dev <= ORACLE_ATOL,
            ),
            (
                f"rates x 2pi: program pop_01={pops[1]:.4f}, pop_10={pops[2]:.4f} in [0.46, 0.50]",
                bool(0.46 <= pops[1] <= 0.50 and 0.46 <= pops[2] <= 0.50),
            ),
            (
                f"rates x 2pi: program |coherence|={coh:.4f} in [0.45, 0.49]",
                abs(coh - 0.47) <= 0.02,
            ),
            (
                f"rates x 2pi: oracle pop_01={band_exact[1, 1].real:.6f}, "
                f"pop_10={band_exact[2, 2].real:.6f}, |coherence|={abs(band_exact[1, 2]):.6f}; "
                f"max |program - oracle| over all 16 entries={band_dev:.2e} <= {ORACLE_ATOL:.0e}",
                band_dev <= ORACLE_ATOL,
            ),
        ],
    )


def test_criterion_03_ideal_limit_exactness(fig_params):
    p = fig_params.without_dissipation()
    t = dynamics.pair_generation_time(p)
    trace = dynamics.evolve(dynamics.initial_pair_state(p), p, t, record_every=10)
    fid = fidelity(trace.final_state, pair_target(p))
    excitation = trace.populations @ np.array([0.0, 1.0, 1.0, 2.0])
    drift = float(np.max(np.abs(excitation - excitation[0])))
    _check(
        3,
        "lossless evolution reaches the target pair and conserves excitation",
        [
            (f"fidelity={fid:.6f} >= 0.999", fid >= 0.999),
            (f"excitation drift={drift:.2e} <= 1e-8", drift <= 1e-8),
        ],
    )


def test_criterion_04_swap_oracle_equivalence():
    rng = np.random.default_rng(RNG_SEED)
    space = qcore.qubit_space("q0", "q1", "q2", "q3")
    worst = 0.0
    for _ in range(50):
        rho = qcore.DensityMatrix(space, ginibre_matrix(rng, 16))
        for o in swap.BELL_OUTCOMES:
            result = swap.bsm(rho, "q1", "q2", outcome=o.label)
            prob_bf, post_bf = brute_force_bsm(rho.matrix, qcore.BELL_LABELS.index(o.label))
            worst = max(
                worst,
                abs(result.probability - prob_bf),
                float(np.max(np.abs(result.post_state.matrix - post_bf))),
            )
    singlets = tensor_product(
        bell_state("psi_minus", ("q0", "q1")), bell_state("psi_minus", ("q2", "q3"))
    )
    worst_fid_gap = max(
        abs(1.0 - fidelity(swap.bsm(singlets, "q1", "q2", outcome=label).post_state,
                           bell_state("psi_minus")))
        for label in qcore.BELL_LABELS
    )
    _check(
        4,
        "measurement matches the brute-force projection; all corrections restore the singlet",
        [
            (f"max oracle deviation={worst:.2e} <= 1e-10", worst <= 1e-10),
            (f"max singlet fidelity gap={worst_fid_gap:.2e} <= 1e-10", worst_fid_gap <= 1e-10),
        ],
    )


def test_criterion_05_werner_closure():
    closure_worst = 0.0
    for n in range(1, 5):
        state = exact_chain_state(werner_state(0.94).matrix, 1.0, n)
        closure_worst = max(
            closure_worst, float(np.max(np.abs(state.matrix - werner_state(0.94**n).matrix)))
        )
    nm = NoiseModel()
    analytic_worst = 0.0
    for hops in range(1, 5):
        state = exact_chain_state(werner_state(nm.p_link).matrix, nm.q_swap, hops)
        fid, conc = network.chain_fidelity(hops, nm)
        analytic_worst = max(
            analytic_worst,
            abs(fidelity(state, bell_state("psi_minus")) - fid),
            abs(qcore.concurrence(state) - conc),
        )
    _check(
        5,
        "werner links stay werner under chained swaps; analytic track matches exact states",
        [
            (f"max closure deviation={closure_worst:.2e} <= 1e-9", closure_worst <= 1e-9),
            (f"max analytic deviation={analytic_worst:.2e} <= 1e-9", analytic_worst <= 1e-9),
        ],
    )


def test_criterion_06_multiplexing_arithmetic():
    hs8 = network.hop_success(0.18, 8)
    hs30 = network.hop_success(0.18, 30)
    # chip-a has one channel, so each hop succeeds with the pinned click probability
    chain = network.simulate_chain(BUILTIN_SCENARIOS["chip-a"], 4, p_click_override=0.18)
    cumulative = chain.hops[-1].p_cumulative
    _check(
        6,
        "multiplexing gains at pinned click probability 0.18",
        [
            (f"hop_success(0.18, 8)={hs8:.4f} within 0.02 of 0.78", abs(hs8 - 0.78) <= 0.02),
            (f"hop_success(0.18, 30)={hs30:.4f} within 0.02 of 0.98", abs(hs30 - 0.98) <= 0.02),
            (f"four-hop single-channel cumulative={cumulative:.5f} < 0.05", cumulative < 0.05),
        ],
    )


def test_criterion_07_fidelity_decline():
    nm = NoiseModel()  # p_link 0.94, calibrated q_swap 0.967
    f1, _ = network.chain_fidelity(1, nm)
    f4, _ = network.chain_fidelity(4, nm)
    report = network.simulate_chain(BUILTIN_SCENARIOS["chip-a"], 4, nm)
    _check(
        7,
        "chain fidelity declines from 0.955 to 0.78 and stays usable for four hops",
        [
            (f"F1={f1:.4f} within 0.01 of 0.955", abs(f1 - 0.955) <= 0.01),
            (f"F4={f4:.4f} within 0.01 of 0.78", abs(f4 - 0.78) <= 0.01),
            ("all four hops usable", all(r.usable for r in report.hops)),
        ],
    )


def test_criterion_08_heralded_link_probability():
    at_zero = swap.heralded_link_probability(0.0, 10.0)
    at_ten = swap.heralded_link_probability(10.0, 10.0)
    _check(
        8,
        "heralded link probability at zero and one attenuation length",
        [
            (f"P(0)={at_zero:.7f} within 1e-6 of 0.5", abs(at_zero - 0.5) <= 1e-6),
            (
                f"P(10km, d=10km)={at_ten:.7f} within 1e-6 of exp(-1)/2 (0.1839)",
                abs(at_ten - math.exp(-1.0) / 2.0) <= 1e-6 and round(at_ten, 4) == 0.1839,
            ),
        ],
    )


def test_criterion_09_scenario_table_ingestion():
    round_trip_ok = all(
        parse_config_text(scenario_to_config(s), "chain").scenario == s
        for s in BUILTIN_SCENARIOS.values()
    )
    metro_a_click = network.click_probability(BUILTIN_SCENARIOS["metro-a"])
    base = BUILTIN_SCENARIOS["metro-b"].replace(eta_conv=0.3)
    doubled = base.replace(eta_conv=0.6)
    ratio = network.click_probability(doubled) / network.click_probability(base)
    _check(
        9,
        "scenario table round-trips; conversion bottleneck and fourth-power scaling hold",
        [
            ("all six scenarios round-trip exactly", round_trip_ok),
            (f"metro-a click={metro_a_click:.2e} < 1e-8", metro_a_click < 1e-8),
            (f"doubling eta_conv scales clicks by {ratio:.9f} (16 within 1e-9)",
             abs(ratio - 16.0) <= 1e-9 * 16.0),
        ],
    )


def test_criterion_10_numerical_hygiene(fig_params, generation_run):
    trace, _ = generation_run
    trace_ok = float(np.max(trace.trace_errors))
    herm_ok = float(np.max(trace.herm_errors))
    psd_ok = float(np.min(trace.min_eigenvalues))

    t = dynamics.pair_generation_time(fig_params)
    dt = dynamics.default_step(fig_params, "rwa")
    target = pair_target(fig_params)
    f_coarse = fidelity(
        dynamics.evolve(dynamics.initial_pair_state(fig_params), fig_params, t, dt=dt).final_state,
        target,
    )
    f_fine = fidelity(
        dynamics.evolve(
            dynamics.initial_pair_state(fig_params), fig_params, t, dt=dt / 2
        ).final_state,
        target,
    )
    _, f_rwa = dynamics.generate_bell_pair(fig_params, hamiltonian="rwa")
    _, f_full = dynamics.generate_bell_pair(fig_params, hamiltonian="full")
    _check(
        10,
        "integration hygiene: invariants, step-halving convergence, frame agreement",
        [
            (f"max trace error={trace_ok:.2e} <= 1e-6", trace_ok <= 1e-6),
            (f"max hermiticity error={herm_ok:.2e} <= 1e-8", herm_ok <= 1e-8),
            (f"min eigenvalue={psd_ok:.2e} >= -1e-7", psd_ok >= -1e-7),
            (
                f"step-halving fidelity change={abs(f_coarse - f_fine):.2e} < 1e-6",
                abs(f_coarse - f_fine) < 1e-6,
            ),
            (
                f"full-vs-RWA fidelity gap={abs(f_full - f_rwa):.2e} < 0.01",
                abs(f_full - f_rwa) < 0.01,
            ),
        ],
    )
