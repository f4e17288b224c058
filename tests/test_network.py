"""Link budgets, multiplexing arithmetic and chain fidelity analytics."""
import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from magrep.dynamics import TWO_PI, LindbladParams, MaterialParams
from magrep.network import (
    BUILTIN_SCENARIOS,
    NoiseModel,
    ScenarioParams,
    chain_fidelity,
    chain_purity,
    click_probability,
    cumulative_success,
    get_scenario,
    hop_success,
    link_efficiency,
    simulate_chain,
    threshold_hops,
)
from magrep.qcore import bell_state, concurrence, fidelity
from conftest import exact_chain_state


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
        *[(MaterialParams(TWO_PI * 28e9, 1.26e-6, 1e15, 1e-9, TWO_PI * 10e9), key)
          for key in ("gyromagnetic_ratio", "vacuum_permeability", "total_spin",
                      "cavity_mode_volume", "omega_c")],
    ])
    def test_nan_field_is_rejected_by_name(self, base, key):
        with pytest.raises(ValueError, match=key):
            dataclasses.replace(base, **{key: math.nan})


    @pytest.mark.parametrize("base, key, value", [
        *[(BUILTIN_SCENARIOS["chip-a"], "m_mux", value) for value in (2.5, True)],
        *[(LindbladParams(), "dim_c", value) for value in (2.5, True)],
    ])
    def test_non_integer_count_is_rejected_by_name(self, base, key, value):
        with pytest.raises(ValueError, match=key):
            dataclasses.replace(base, **{key: value})


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
        base = dataclasses.replace(BUILTIN_SCENARIOS["metro-b"], eta_conv=0.25)
        doubled = dataclasses.replace(base, eta_conv=0.5)
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


class TestCumulativeSuccess:
    def test_geometric_product(self):
        assert cumulative_success([0.8] * 4) == pytest.approx([0.8, 0.64, 0.512, 0.4096])

    def test_zero_hop_zeroes_tail(self):
        out = cumulative_success([0.9, 0.0, 0.7])
        assert out[1:] == [0.0, 0.0]

    def test_single_channel_four_hops_below_five_percent(self):
        assert cumulative_success([0.18] * 4)[-1] == pytest.approx(0.00105, abs=1e-5)
        assert cumulative_success([0.18] * 4)[-1] < 0.05

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="position 1"):
            cumulative_success([0.5, 1.4])


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
            state = exact_chain_state(nm.p_link, nm.q_swap, hops)
            fid, conc = chain_fidelity(hops, nm)
            assert fidelity(state, singlet) == pytest.approx(fid, abs=1e-9)
            assert concurrence(state) == pytest.approx(conc, abs=1e-9)

    def test_non_increasing_in_hops(self):
        nm = NoiseModel()
        fids = [chain_fidelity(h, nm)[0] for h in range(1, 9)]
        assert all(a >= b for a, b in zip(fids, fids[1:]))


class TestThresholdHops:
    def test_default_noise_model(self):
        # brute-force scan of the closed-form fidelity
        nm = NoiseModel()
        expected = 0
        for h in range(1, 100):
            if (3 * nm.p_link**h * nm.q_swap ** (h - 1) + 1) / 4 >= 0.7 - 1e-12:
                expected = h
            else:
                break
        assert expected == 5
        assert threshold_hops(nm) == expected

    def test_no_degradation_sentinel(self):
        assert threshold_hops(NoiseModel(p_link=1.0, q_swap=1.0)) == math.inf

    def test_threshold_below_mixed_floor_is_unbounded(self):
        assert threshold_hops(NoiseModel(), f_min=0.2) == math.inf

    def test_exactly_at_first_hop_fidelity(self):
        assert threshold_hops(NoiseModel(), f_min=0.955) == 1

    def test_zero_when_first_hop_fails(self):
        assert threshold_hops(NoiseModel(p_link=0.5, q_swap=0.9)) == 0

    def test_f_min_domain(self):
        with pytest.raises(ValueError, match="f_min"):
            threshold_hops(NoiseModel(), f_min=1.0)


class TestSimulateChain:
    def test_chip_a_four_hops_all_usable(self):
        report = simulate_chain(BUILTIN_SCENARIOS["chip-a"], 4)
        assert len(report.hops) == 4
        assert all(r.usable for r in report.hops)
        assert report.hops[-1].fidelity == pytest.approx(0.78, abs=0.01)

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

    def test_heterogeneous_chain(self):
        mix = [BUILTIN_SCENARIOS["chip-a"], BUILTIN_SCENARIOS["chip-b"]]
        report = simulate_chain(mix, 2)
        assert report.scenario_name == "chip-a,chip-b"
        assert report.hops[0].p_hop != report.hops[1].p_hop

    def test_heterogeneous_length_mismatch(self):
        with pytest.raises(ValueError, match="scenarios for"):
            simulate_chain([BUILTIN_SCENARIOS["chip-a"]], 2)


class TestScenarioDerivation:
    def test_span_changes_link_efficiency(self):
        near = dataclasses.replace(BUILTIN_SCENARIOS["metro-c"], l_span=1.0)
        far = dataclasses.replace(BUILTIN_SCENARIOS["metro-c"], l_span=50.0)
        assert link_efficiency(near) > link_efficiency(far)

    def test_chain_purity_closed_form(self):
        nm = NoiseModel(p_link=0.9, q_swap=0.95)
        assert chain_purity(3, nm) == pytest.approx(0.9**3 * 0.95**2, rel=1e-12)
