"""Link budgets, multiplexing arithmetic and chain fidelity analytics."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrep import network
from magrep.dynamics import LindbladParams, generate_bell_pair
from magrep.network import (
    BUILTIN_SCENARIOS,
    USABLE_FIDELITY_THRESHOLD,
    NoiseModel,
    ScenarioParams,
    chain_fidelity,
    chain_purity,
    click_probability,
    get_scenario,
    hop_success,
    link_efficiency,
    simulate_chain,
)
from magrep.qcore import (
    BELL_LABELS,
    DensityMatrix,
    bell_state,
    concurrence,
    fidelity,
    werner_state,
)
from conftest import exact_chain_state, ginibre_matrix


class TestScenarioTable:
    def test_six_builtin_rows(self):
        assert sorted(BUILTIN_SCENARIOS) == [
            "chip-a", "chip-b", "chip-c", "metro-a", "metro-b", "metro-c",
        ]

    def test_chip_rows(self):
        for name, p_bsa, m_mux in (("chip-a", 0.50, 1), ("chip-b", 0.50, 8), ("chip-c", 0.75, 30)):
            s = BUILTIN_SCENARIOS[name]
            assert (s.alpha, s.l_span) == (20.0, 0.01)
            assert s.eta_conv is None
            assert (s.eta_read, s.eta_extra, s.eta_det, s.eta_col) == (0.62, 0.98, 0.98, 0.95)
            assert (s.p_bsa, s.m_mux) == (p_bsa, m_mux)

    def test_metro_rows(self):
        rows = {
            "metro-a": (0.35, 0.005, 0.90, 0.80, 0.50, 1),
            "metro-b": (0.20, 0.50, 0.95, 0.98, 0.50, 8),
            "metro-c": (0.16, 0.80, 0.95, 0.98, 0.75, 30),
        }
        for name, (alpha, conv, extra, det, p_bsa, m_mux) in rows.items():
            s = BUILTIN_SCENARIOS[name]
            assert s.l_span == 10.0
            assert (s.alpha, s.eta_conv, s.eta_extra, s.eta_det) == (alpha, conv, extra, det)
            assert (s.eta_read, s.eta_col, s.p_bsa, s.m_mux) == (0.62, 0.95, p_bsa, m_mux)

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("Metro-C") is BUILTIN_SCENARIOS["metro-c"]

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="chip-a.*metro-c"):
            get_scenario("lab-z")

    def test_field_validation(self):
        with pytest.raises(ValueError, match="eta_det"):
            ScenarioParams("x", 1.0, 1.0, 0.5, None, 0.9, 1.2, 0.9, 0.5, 1)
        with pytest.raises(ValueError, match="multiplexing"):
            ScenarioParams("x", 1.0, 1.0, 0.5, None, 0.9, 0.9, 0.9, 0.5, 0)
        with pytest.raises(ValueError, match="span"):
            ScenarioParams("x", 1.0, 0.0, 0.5, None, 0.9, 0.9, 0.9, 0.5, 1)

    @pytest.mark.parametrize("base, key", [
        *[(BUILTIN_SCENARIOS["metro-c"], key)
          for key in ("alpha", "l_span", "eta_conv", "eta_det", "p_bsa", "m_mux")],
        *[(LindbladParams(), key)
          for key in ("omega_c", "omega_m", "g_mc", "kappa_d", "gamma_d", "kappa_phi",
                      "gamma_phi")],
    ])
    def test_nan_field_is_rejected_by_name(self, base, key):
        with pytest.raises(ValueError, match=key):
            base.replace(**{key: math.nan})


    @pytest.mark.parametrize("base, key, value", [
        *[(BUILTIN_SCENARIOS["chip-a"], "m_mux", value) for value in (2.5, True)],
        *[(LindbladParams(), "dim_c", value) for value in (2.5, True)],
    ])
    def test_non_integer_count_is_rejected_by_name(self, base, key, value):
        with pytest.raises(ValueError, match=key):
            base.replace(**{key: value})


class TestLinkEfficiency:
    def test_chip_value(self):
        val = link_efficiency(BUILTIN_SCENARIOS["chip-a"])
        assert val == pytest.approx(10 ** (-0.02) * 0.98, rel=1e-12)
        assert val == pytest.approx(0.9359, abs=1e-4)

    def test_metro_a_value(self):
        val = link_efficiency(BUILTIN_SCENARIOS["metro-a"])
        assert val == pytest.approx(10 ** (-0.35) * 0.005**2 * 0.90, rel=1e-12)
        assert val == pytest.approx(1.005e-5, rel=1e-3)

    def test_metro_c_value(self):
        val = link_efficiency(BUILTIN_SCENARIOS["metro-c"])
        assert val == pytest.approx(10 ** (-0.16) * 0.80**2 * 0.95, rel=1e-12)
        assert val == pytest.approx(0.4207, abs=1e-4)


class TestClickProbability:
    def test_chip_a(self):
        eta = 10 ** (-0.02) * 0.98
        expected = 0.5 * 0.98**2 * 0.95**2 * eta**2 * 0.62
        val = click_probability(BUILTIN_SCENARIOS["chip-a"])
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.2354, abs=1e-4)

    def test_metro_a_conversion_bottleneck(self):
        val = click_probability(BUILTIN_SCENARIOS["metro-a"])
        assert val == pytest.approx(1.8e-11, rel=0.01)
        assert val < 1e-8

    def test_metro_c(self):
        assert click_probability(BUILTIN_SCENARIOS["metro-c"]) == pytest.approx(0.0713, abs=1e-4)

    def test_scenario_ordering(self):
        pa = click_probability(BUILTIN_SCENARIOS["metro-a"])
        pb = click_probability(BUILTIN_SCENARIOS["metro-b"])
        pc = click_probability(BUILTIN_SCENARIOS["metro-c"])
        assert pa < pb < pc
        assert pb / pa > 1e6

    def test_conversion_fourth_power_scaling(self):
        base = BUILTIN_SCENARIOS["metro-b"].replace(eta_conv=0.25)
        doubled = base.replace(eta_conv=0.5)
        ratio = click_probability(doubled) / click_probability(base)
        assert ratio == pytest.approx(16.0, rel=1e-9)


class TestHopSuccess:
    def test_single_channel_is_identity(self):
        assert hop_success(0.3, 1) == 0.3

    def test_reference_multiplexing_values(self):
        assert hop_success(0.18, 8) == pytest.approx(1 - 0.82**8, rel=1e-12)
        assert hop_success(0.18, 8) == pytest.approx(0.7956, abs=1e-4)
        assert hop_success(0.18, 30) == pytest.approx(0.9974, abs=1e-4)

    @given(
        p=st.floats(0.01, 0.99),
        m=st.integers(1, 100),
    )
    @settings(max_examples=80, deadline=None)
    def test_monotone_in_channels(self, p, m):
        # stay away from float saturation of (1-p)^m at 1.0
        assume((1.0 - p) ** (m + 1) > 1e-12)
        assert hop_success(p, m + 1) > hop_success(p, m)

    @given(
        p=st.floats(0.01, 0.99),
        m=st.integers(1, 60),
    )
    @settings(max_examples=80, deadline=None)
    def test_diminishing_returns(self, p, m):
        assume((1.0 - p) ** (m + 2) > 1e-12)
        gain_here = hop_success(p, m + 1) - hop_success(p, m)
        gain_next = hop_success(p, m + 2) - hop_success(p, m + 1)
        assert gain_next < gain_here

    @given(p_lo=st.floats(0.01, 0.49), p_hi=st.floats(0.5, 0.99), m=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_click_probability(self, p_lo, p_hi, m):
        assert hop_success(p_hi, m) > hop_success(p_lo, m)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="outside"):
            hop_success(1.2, 3)
        with pytest.raises(ValueError, match=">= 1"):
            hop_success(0.5, 0)


class TestChainFidelity:
    def test_first_hop(self):
        fid, conc = chain_fidelity(1, NoiseModel())
        assert fid == pytest.approx(0.955, abs=1e-9)
        assert conc == pytest.approx(0.91, abs=1e-9)

    def test_fourth_hop(self):
        fid, conc = chain_fidelity(4, NoiseModel())
        p_eff = 0.94**4 * 0.967**3
        assert fid == pytest.approx((3 * p_eff + 1) / 4, rel=1e-12)
        assert fid == pytest.approx(0.78, abs=0.01)
        assert conc == pytest.approx((3 * p_eff - 1) / 2, rel=1e-12)
        assert conc == pytest.approx(0.559, abs=1e-3)

    def test_requires_positive_hops(self):
        with pytest.raises(ValueError, match=">= 1"):
            chain_fidelity(0, NoiseModel())

    def test_matches_exact_density_matrix_pipeline(self):
        nm = NoiseModel()
        singlet = bell_state("psi_minus")
        for hops in range(1, 5):
            state = exact_chain_state(werner_state(nm.p_link).matrix, nm.q_swap, hops)
            fid, conc = chain_fidelity(hops, nm)
            assert fidelity(state, singlet) == pytest.approx(fid, abs=1e-9)
            assert concurrence(state) == pytest.approx(conc, abs=1e-9)

    def test_non_increasing_in_hops(self):
        nm = NoiseModel()
        fids = [chain_fidelity(h, nm)[0] for h in range(1, 9)]
        assert all(a >= b for a, b in zip(fids, fids[1:]))


@pytest.fixture(scope="module")
def node_link() -> np.ndarray:
    """The node's own 2x2 pair at the default rates, in the singlet frame.

    diag(1, -i) on the magnon takes the target (|0_m 1_c> - i |1_m 0_c>)/sqrt(2)
    to the singlet; a local unitary changes neither fidelity nor entanglement.
    """
    u = np.kron(np.diag([1.0, -1j]), np.eye(2))
    return u @ generate_bell_pair(LindbladParams())[0].matrix @ u.conj().T


def _x_state(m) -> tuple:
    """An X state as (rho_00, rho_11, rho_22, rho_33, rho_12, rho_03) in plain Python."""
    return (*(float(m[k][k].real) for k in range(4)), complex(m[1][2]), complex(m[0][3]))


def _x_swap(a: tuple, b: tuple, herald: str) -> tuple:
    """Exact corrected bsm of two X states; ψ and φ heralds pair the inner qubits differently."""
    a0, a1, a2, a3, xa, ya = a
    b0, b1, b2, b3, xb, yb = b
    if herald.startswith("psi"):
        pops = (a0 * b2 + a1 * b0, a0 * b3 + a1 * b1, a2 * b2 + a3 * b0, a2 * b3 + a3 * b1)
        x, y = xa * xb + ya * yb.conjugate(), xa * yb + ya * xb.conjugate()
    else:
        pops = (a0 * b1 + a1 * b3, a0 * b0 + a1 * b2, a2 * b1 + a3 * b3, a2 * b0 + a3 * b2)
        x, y = xa * xb.conjugate() + ya * yb, xa * yb.conjugate() + ya * xb
    norm = sum(pops)
    return (*(v / norm for v in pops), -x / norm, -y / norm)


def _x_depolarize(s: tuple, q: float) -> tuple:
    return (*(q * v + (1.0 - q) / 4.0 for v in s[:4]), q * s[4], q * s[5])


class TestWernerClosureOnNodeLinks:
    """The chain model treats every link as Werner; the node's links are not.

    X states (four populations, the 01/10 and 00/11 coherences) stay X states
    under the corrected bsm and under depolarize, so the exact chain needs
    only that recurrence. On the node's link it shows the closure's gap.
    """

    @pytest.mark.parametrize("herald", BELL_LABELS)
    def test_x_state_recurrence_matches_pipeline(self, node_link, rng, herald):
        # The node's link has no 00/11 coherence; the X part of a random state
        # (a direct sum of two principal 2x2 blocks, so still a state) has one.
        x_pattern = np.eye(4) + np.fliplr(np.eye(4))
        q = NoiseModel().q_swap
        for link in (node_link, x_pattern * ginibre_matrix(rng, 4)):
            s = start = _x_state(link)
            for _ in range(7):
                s = _x_depolarize(_x_swap(s, start, herald), q)
            expected = np.diag(np.array(s[:4], dtype=complex))
            expected[1, 2], expected[0, 3] = s[4], s[5]
            expected += np.triu(expected, 1).conj().T
            got = exact_chain_state(link, q, 8, herald).matrix
            assert np.max(np.abs(got - expected)) <= 1e-12

    # Gap between the exact fidelity of h fused node links (no swap noise)
    # and the Werner closure (3 p^h + 1)/4, with p fitted to the one-link
    # fidelity. Halving the step moves each gap by < 1e-8 of itself and the
    # full Hamiltonian in place of the RWA by 2e-4, while rates x3 move the
    # 8-hop gap 7x (about rate^1.8). A 1 % band keeps the first two and
    # rejects a sign flip, a closure that became exact, or node rates off by
    # more than about 0.6 %.
    @pytest.mark.parametrize("herald, hops, gap", [
        ("psi_minus", 2, 1.81e-5),
        ("phi_plus", 2, -1.11e-5),
        ("psi_minus", 8, 4.69e-4),
        ("phi_plus", 8, 2.85e-4),
    ])
    def test_closure_gap_at_default_rates(self, node_link, herald, hops, gap):
        singlet = bell_state("psi_minus")
        p = (4.0 * fidelity(DensityMatrix(singlet.space, node_link), singlet) - 1.0) / 3.0
        state = exact_chain_state(node_link, 1.0, hops, herald)
        exact = fidelity(state, bell_state("psi_minus", state.space.labels))
        assert exact - (3.0 * p**hops + 1.0) / 4.0 == pytest.approx(gap, rel=0.01)


class TestCumulativeSuccess:
    """p_cumulative of simulate_chain is the running product of the hop successes."""

    @staticmethod
    def _cumulative(p_click, hops):
        # chip-a has one channel, so p_hop is the pinned click probability
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], hops, p_click_override=p_click)
        assert all(r.p_hop == p_click for r in report.hops)
        return [r.p_cumulative for r in report.hops]

    def test_geometric_product(self):
        assert self._cumulative(0.8, 4) == pytest.approx([0.8, 0.64, 0.512, 0.4096], rel=1e-12)

    def test_single_channel_four_hops_below_five_percent(self):
        cums = self._cumulative(0.18, 4)
        assert cums == pytest.approx([0.18, 0.18**2, 0.18**3, 0.18**4], rel=1e-12)
        assert cums[-1] == pytest.approx(0.00105, abs=1e-5)
        assert cums[-1] < 0.05


class TestSimulateChain:
    def test_chip_a_four_hops_all_usable(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], 4)
        assert len(report.hops) == 4
        assert all(r.usable for r in report.hops)
        assert report.hops[-1].fidelity == pytest.approx(0.78, abs=0.01)

    def test_usable_until_the_fidelity_falls_below_threshold(self):
        # brute-force scan of the closed-form fidelity
        nm = NoiseModel()
        expected = 0
        for h in range(1, 100):
            if (3 * nm.p_link**h * nm.q_swap ** (h - 1) + 1) / 4 >= 0.7 - 1e-12:
                expected = h
            else:
                break
        assert expected == 5
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], 8, nm)
        assert [r.usable for r in report.hops] == [h <= expected for h in range(1, 9)]

    def test_hop_at_exactly_the_threshold_is_usable(self):
        # (3 * 0.6 + 1) / 4 is the threshold itself
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], 2, NoiseModel(p_link=0.6, q_swap=1.0))
        assert report.hops[0].fidelity == USABLE_FIDELITY_THRESHOLD
        assert [r.usable for r in report.hops] == [True, False]

    def test_metro_a_heralding_collapse_keeps_fidelity(self):
        report = simulate_chain(BUILTIN_SCENARIOS["metro-a"], 4)
        assert report.hops[-1].p_cumulative < 1e-40
        assert report.hops[-1].fidelity == pytest.approx(0.78, abs=0.01)

    def test_probabilities_non_increasing(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-b"], 6)
        cums = [r.p_cumulative for r in report.hops]
        assert all(a >= b for a, b in zip(cums, cums[1:]))

    def test_zero_hops_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            simulate_chain(BUILTIN_SCENARIOS["chip-a"], 0)

    def test_single_hop_report(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], 1)
        assert len(report.hops) == 1
        assert report.hops[0].p_hop == report.hops[0].p_cumulative

    def test_click_override(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-b"], 4, p_click_override=0.18)
        assert report.p_click == 0.18
        for r in report.hops:
            assert r.p_hop == pytest.approx(1 - 0.82**8, rel=1e-12)

    def test_zero_click_probability_zeroes_every_hop(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-c"], 3, p_click_override=0.0)
        assert [(r.p_hop, r.p_cumulative) for r in report.hops] == [(0.0, 0.0)] * 3

    @pytest.mark.parametrize("value", [-0.1, 1.5, math.nan])
    def test_click_override_outside_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match=r"p_click_override=.* outside \[0, 1\]"):
            simulate_chain(BUILTIN_SCENARIOS["chip-a"], 2, p_click_override=value)

    def test_link_budget_is_evaluated_once_per_chain(self, monkeypatch):
        calls = []
        original = network.click_probability
        monkeypatch.setattr(network, "click_probability",
                            lambda s: calls.append(s) or original(s))
        report = simulate_chain(BUILTIN_SCENARIOS["metro-c"], 8)
        assert calls == [BUILTIN_SCENARIOS["metro-c"]]
        assert report.p_click == original(BUILTIN_SCENARIOS["metro-c"])


class TestScenarioDerivation:
    def test_span_changes_link_efficiency(self):
        near = BUILTIN_SCENARIOS["metro-c"].replace(l_span=1.0)
        far = BUILTIN_SCENARIOS["metro-c"].replace(l_span=50.0)
        assert link_efficiency(near) > link_efficiency(far)

    def test_chain_purity_closed_form(self):
        nm = NoiseModel(p_link=0.9, q_swap=0.95)
        assert chain_purity(3, nm) == pytest.approx(0.9**3 * 0.95**2, rel=1e-12)
