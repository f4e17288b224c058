"""Analytic multi-hop repeater model: link budgets, multiplexing, fidelity decay.

Rates and states are deliberately decoupled: the scalar success probabilities
computed here describe how often a hop heralds, while the per-hop fidelity and
concurrence describe the state conditioned on that herald. The state track is
the closed Werner family, so an h-hop chain with per-link purity ``p_link``
and per-swap retention ``q_swap`` has effective purity
``p_link**h * q_swap**(h-1)``; that expression is cross-checked against the
exact density-matrix pipeline in the test suite.
"""
from __future__ import annotations

from .params import Value, check_count, check_probability, check_real

# Minimum conditional fidelity for a hop to count as usable for key distribution.
USABLE_FIDELITY_THRESHOLD = 0.7

# Slack for the usable-hop comparison so a fidelity that analytically sits
# exactly on the threshold is counted as reaching it despite float rounding.
_THRESHOLD_EPS = 1e-12


class ScenarioParams(Value):
    """One deployment scenario row, normalized to dB/km and km.

    Chip-scale rows are quoted per centimetre; they are stored with the
    attenuation scaled up by 100 and the span scaled down by 100, which keeps
    the total span loss alpha*L (the only combination the formulas consume)
    exact. ``eta_conv`` is None for purely microwave links with no
    microwave-to-optical conversion stage.
    """

    name: str
    alpha: float  # dB per km
    l_span: float  # km
    eta_read: float
    eta_conv: float | None
    eta_extra: float
    eta_det: float
    eta_col: float
    p_bsa: float
    m_mux: int

    def __post_init__(self) -> None:
        check_real("alpha", self.alpha)
        check_real("l_span", self.l_span, "> 0")
        for key in ("eta_read", "eta_extra", "eta_det", "eta_col", "p_bsa"):
            check_probability(key, getattr(self, key))
        if self.eta_conv is not None:
            check_probability("eta_conv", self.eta_conv)
        check_count("m_mux", self.m_mux)


class NoiseModel(Value):
    """Werner-track noise: per-link purity and per-swap depolarizing retention."""

    p_link: float = 0.94
    q_swap: float = 0.967

    def __post_init__(self) -> None:
        for key in ("p_link", "q_swap"):
            check_probability(key, getattr(self, key))


class HopRecord(Value):
    hop: int
    fidelity: float
    concurrence: float
    p_hop: float
    p_cumulative: float
    usable: bool


class ChainReport(Value):
    """Per-hop chain summary; success probabilities are cumulative products."""

    scenario_name: str
    p_click: float
    hops: tuple[HopRecord, ...]


def _chip(name: str, p_bsa: float, m_mux: int) -> ScenarioParams:
    return ScenarioParams(
        name=name, alpha=20.0, l_span=0.01, eta_read=0.62, eta_conv=None,
        eta_extra=0.98, eta_det=0.98, eta_col=0.95, p_bsa=p_bsa, m_mux=m_mux,
    )


def _metro(name: str, alpha: float, conv: float, extra: float, det: float,
           p_bsa: float, m_mux: int) -> ScenarioParams:
    return ScenarioParams(
        name=name, alpha=alpha, l_span=10.0, eta_read=0.62, eta_conv=conv,
        eta_extra=extra, eta_det=det, eta_col=0.95, p_bsa=p_bsa, m_mux=m_mux,
    )


BUILTIN_SCENARIOS: dict[str, ScenarioParams] = {
    s.name: s
    for s in (
        _chip("chip-a", 0.50, 1),
        _chip("chip-b", 0.50, 8),
        _chip("chip-c", 0.75, 30),
        _metro("metro-a", 0.35, 0.005, 0.90, 0.80, 0.50, 1),
        _metro("metro-b", 0.20, 0.50, 0.95, 0.98, 0.50, 8),
        _metro("metro-c", 0.16, 0.80, 0.95, 0.98, 0.75, 30),
    )
}


def get_scenario(name: str) -> ScenarioParams:
    """Built-in scenario lookup, case-insensitive."""
    key = name.strip().lower()
    if key not in BUILTIN_SCENARIOS:
        valid = ", ".join(sorted(BUILTIN_SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; valid names: {valid}")
    return BUILTIN_SCENARIOS[key]


def link_efficiency(s: ScenarioParams) -> float:
    """Single-photon span transmission: fiber loss, conversion (twice), parasitics."""
    conv_factor = s.eta_conv**2 if s.eta_conv is not None else 1.0
    return 10.0 ** (-s.alpha * s.l_span / 10.0) * conv_factor * s.eta_extra


def click_probability(s: ScenarioParams) -> float:
    """Single-channel Bell-click probability for one hop.

    Both photons of the pair must survive the span (link efficiency squared),
    be collected and detected, pass the analyzer, and the memory must read
    out once.
    """
    eta_link = link_efficiency(s)
    return s.p_bsa * s.eta_det**2 * s.eta_col**2 * eta_link**2 * s.eta_read


def hop_success(p_click: float, m_mux: int) -> float:
    """At least one of m_mux parallel channels clicks: 1 - (1 - p)^m."""
    check_probability("p_click", p_click)
    check_count("m_mux", m_mux)
    if m_mux == 1:
        return p_click
    return 1.0 - (1.0 - p_click) ** m_mux


def chain_purity(hops: int, nm: NoiseModel) -> float:
    """Effective Werner purity after ``hops`` links and ``hops - 1`` swaps."""
    check_count("hops", hops)
    return nm.p_link**hops * nm.q_swap ** (hops - 1)


def chain_fidelity(hops: int, nm: NoiseModel) -> tuple[float, float]:
    """Conditional end-to-end (fidelity, concurrence) after ``hops`` hops."""
    p_eff = chain_purity(hops, nm)
    fid = (3.0 * p_eff + 1.0) / 4.0
    conc = max(0.0, (3.0 * p_eff - 1.0) / 2.0)
    return fid, conc


def simulate_chain(
    scenario: ScenarioParams,
    hops: int,
    nm: NoiseModel = NoiseModel(),
    p_click_override: float | None = None,
) -> ChainReport:
    """Full per-hop report for a chain of ``hops`` identical ``scenario`` hops.

    ``p_click_override`` pins the single-channel click probability while the
    multiplexing arithmetic still follows the scenario's m_mux. The cumulative
    success is the running product of the per-hop success, in hop order.
    """
    check_count("hops", hops)
    if p_click_override is not None:
        check_probability("p_click_override", p_click_override)

    p_click = click_probability(scenario) if p_click_override is None else p_click_override
    p_hop = hop_success(p_click, scenario.m_mux)
    p_cumulative = 1.0
    records = []
    for h in range(1, hops + 1):
        fid, conc = chain_fidelity(h, nm)
        p_cumulative *= p_hop
        records.append(
            HopRecord(
                hop=h,
                fidelity=fid,
                concurrence=conc,
                p_hop=p_hop,
                p_cumulative=p_cumulative,
                usable=fid >= USABLE_FIDELITY_THRESHOLD - _THRESHOLD_EPS,
            )
        )
    return ChainReport(scenario_name=scenario.name, p_click=p_click, hops=tuple(records))
