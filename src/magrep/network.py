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

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

# Minimum conditional fidelity for a hop to count as usable for key distribution.
USABLE_FIDELITY_THRESHOLD = 0.7

# Slack for threshold comparisons so a fidelity that analytically sits exactly
# on f_min is counted as reaching it despite float rounding.
_THRESHOLD_EPS = 1e-12


@dataclass(frozen=True)
class ScenarioParams:
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
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError(f"alpha (attenuation) must be finite and >= 0, got {self.alpha}")
        if not (math.isfinite(self.l_span) and self.l_span > 0):
            raise ValueError(f"l_span (span length) must be finite and > 0, got {self.l_span}")
        effs = {
            "eta_read": self.eta_read,
            "eta_extra": self.eta_extra,
            "eta_det": self.eta_det,
            "eta_col": self.eta_col,
            "p_bsa": self.p_bsa,
        }
        if self.eta_conv is not None:
            effs["eta_conv"] = self.eta_conv
        for key, val in effs.items():
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{key}={val} outside [0, 1]")
        if isinstance(self.m_mux, bool) or not isinstance(self.m_mux, Integral) or self.m_mux < 1:
            raise ValueError(
                f"m_mux (multiplexing level) must be an integer >= 1, got {self.m_mux!r}"
            )


@dataclass(frozen=True)
class NoiseModel:
    """Werner-track noise: per-link purity and per-swap depolarizing retention."""

    p_link: float = 0.94
    q_swap: float = 0.967

    def __post_init__(self) -> None:
        for key in ("p_link", "q_swap"):
            val = getattr(self, key)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{key}={val} outside [0, 1]")


@dataclass(frozen=True)
class HopRecord:
    hop: int
    fidelity: float
    concurrence: float
    p_hop: float
    p_cumulative: float
    usable: bool


@dataclass(frozen=True)
class ChainReport:
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
    if not 0.0 <= p_click <= 1.0:
        raise ValueError(f"p_click={p_click} outside [0, 1]")
    if m_mux < 1:
        raise ValueError(f"multiplexing level must be >= 1, got {m_mux}")
    if m_mux == 1:
        return p_click
    return 1.0 - (1.0 - p_click) ** m_mux


def cumulative_success(per_hop: Sequence[float]) -> list[float]:
    """Running product of per-hop success probabilities."""
    out = []
    acc = 1.0
    for i, p in enumerate(per_hop):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"per-hop probability {p} at position {i} outside [0, 1]")
        acc *= p
        out.append(acc)
    return out


def chain_purity(hops: int, nm: NoiseModel) -> float:
    """Effective Werner purity after ``hops`` links and ``hops - 1`` swaps."""
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    return nm.p_link**hops * nm.q_swap ** (hops - 1)


def chain_fidelity(hops: int, nm: NoiseModel) -> tuple[float, float]:
    """Conditional end-to-end (fidelity, concurrence) after ``hops`` hops."""
    p_eff = chain_purity(hops, nm)
    fid = (3.0 * p_eff + 1.0) / 4.0
    conc = max(0.0, (3.0 * p_eff - 1.0) / 2.0)
    return fid, conc


def simulate_chain(
    scenario: ScenarioParams | Sequence[ScenarioParams],
    hops: int,
    nm: NoiseModel = NoiseModel(),
    p_click_override: float | None = None,
) -> ChainReport:
    """Full per-hop report for a chain of identical (or listed) scenario hops.

    ``p_click_override`` pins the single-channel click probability while the
    multiplexing arithmetic still follows each hop's m_mux.
    """
    if hops < 1:
        raise ValueError(f"hops must be >= 1, got {hops}")
    if isinstance(scenario, ScenarioParams):
        per_hop_scenarios = [scenario] * hops
        name = scenario.name
    else:
        per_hop_scenarios = list(scenario)
        if len(per_hop_scenarios) != hops:
            raise ValueError(f"got {len(per_hop_scenarios)} scenarios for {hops} hops")
        name = ",".join(s.name for s in per_hop_scenarios)
    if p_click_override is not None and not 0.0 <= p_click_override <= 1.0:
        raise ValueError(f"p_click_override={p_click_override} outside [0, 1]")

    clicks = [
        p_click_override if p_click_override is not None else click_probability(s)
        for s in per_hop_scenarios
    ]
    per_hop = [hop_success(c, s.m_mux) for c, s in zip(clicks, per_hop_scenarios)]
    cumulative = cumulative_success(per_hop)
    records = []
    for h in range(1, hops + 1):
        fid, conc = chain_fidelity(h, nm)
        records.append(
            HopRecord(
                hop=h,
                fidelity=fid,
                concurrence=conc,
                p_hop=per_hop[h - 1],
                p_cumulative=cumulative[h - 1],
                usable=fid >= USABLE_FIDELITY_THRESHOLD - _THRESHOLD_EPS,
            )
        )
    return ChainReport(scenario_name=name, p_click=clicks[0], hops=tuple(records))


def threshold_hops(nm: NoiseModel, f_min: float = USABLE_FIDELITY_THRESHOLD) -> int | float:
    """Largest hop count whose conditional fidelity still reaches ``f_min``.

    Returns 0 when even one hop falls short, and ``math.inf`` when the chain
    never degrades below the threshold (no per-hop decay, or ``f_min`` at or
    below the fully mixed floor of 0.25).
    """
    if not 0.0 < f_min < 1.0:
        raise ValueError(f"f_min={f_min} outside (0, 1)")
    fid_1, _ = chain_fidelity(1, nm)
    if fid_1 < f_min - _THRESHOLD_EPS:
        return 0
    decay = nm.p_link * nm.q_swap
    floor = fid_1 if decay >= 1.0 else 0.25
    if floor >= f_min - _THRESHOLD_EPS:
        return math.inf
    h = 1
    while True:
        fid, _ = chain_fidelity(h + 1, nm)
        if fid < f_min - _THRESHOLD_EPS:
            return h
        h += 1
