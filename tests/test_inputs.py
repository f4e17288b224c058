"""The library's refusal table: every count, real and probability argument, refused by name.

Each row is one argument of a public constructor or function: the subject its
message starts with, the values it must refuse, the values it must accept, and
the call with that argument set. By kind, a count (``params.check_count``)
refuses NaN, +-inf, True, a fraction and the integer below its minimum; a real
(``params.check_real``) refuses NaN, +-inf, True and, if bounded, a value
outside its bound; a probability (``params.check_probability``) refuses NaN,
+-inf, True, -0.1 and 1.5. Every refusal is a ``ValueError`` whose message
starts with the subject.
"""
import math
import re

import numpy as np
import pytest

from magrep.config import RunConfig
from magrep.dynamics import evolve, initial_pair_state
from magrep.excitation import integrate_pair
from magrep.network import (
    BUILTIN_SCENARIOS, NoiseModel, chain_fidelity, chain_purity, hop_success, simulate_chain,
)
from magrep.params import LindbladParams
from magrep.qcore import HilbertSpec, werner_state
from magrep.swap import beam_splitter_unitary, depolarize, heralded_link_probability, swap_time

_NON_FINITE = (math.nan, math.inf, -math.inf)
_REAL = {">= 0": (*_NON_FINITE, True, -1e-9), "> 0": (*_NON_FINITE, True, 0.0, -1e-9),
         None: (*_NON_FINITE, True)}
_PROBABILITY = (*_NON_FINITE, True, -0.1, 1.5)


def _count(minimum: int) -> tuple:
    return (*_NON_FINITE, True, minimum + 0.5, minimum - 1)


_P = LindbladParams()
_METRO = BUILTIN_SCENARIOS["metro-c"]
_CHIP = BUILTIN_SCENARIOS["chip-a"]
_RATES = ("omega_c", "omega_m", "g_mc", "kappa_d", "gamma_d", "kappa_phi", "gamma_phi")
_EFFICIENCIES = ("eta_read", "eta_extra", "eta_det", "eta_col", "p_bsa")

# (callable, subject, refused values, accepted values, call with the argument set)
TABLE = [
    *[("LindbladParams", name, _REAL[">= 0"], (0.0, 1e9),
       lambda v, n=name: LindbladParams(**{n: v})) for name in _RATES],
    *[("LindbladParams", name, _count(2), (2, np.int64(3)),
       lambda v, n=name: LindbladParams(**{n: v})) for name in ("dim_c", "dim_m")],
    ("HilbertSpec", "subsystem 'b' dimension", _count(2), (2, 5),
     lambda v: HilbertSpec((("a", 2), ("b", v)))),
    ("RunConfig", "hops", _count(1), (1, 8), lambda v: RunConfig(hops=v)),
    *[("RunConfig", name, _REAL["> 0"], (None, 1e-9), lambda v, n=name: RunConfig(**{n: v}))
      for name in ("t_final", "dt")],
    ("RunConfig", "pclick_override", _PROBABILITY, (None, 0.0, 1.0),
     lambda v: RunConfig(pclick_override=v)),
    ("ScenarioParams", "alpha", _REAL[">= 0"], (0.0, 0.2), lambda v: _METRO.replace(alpha=v)),
    ("ScenarioParams", "l_span", _REAL["> 0"], (1e-3, 50.0), lambda v: _METRO.replace(l_span=v)),
    *[("ScenarioParams", name, _PROBABILITY, (0.0, 1.0),
       lambda v, n=name: _METRO.replace(**{n: v})) for name in _EFFICIENCIES],
    ("ScenarioParams", "eta_conv", _PROBABILITY, (None, 0.0, 1.0),
     lambda v: _METRO.replace(eta_conv=v)),
    ("ScenarioParams", "m_mux", _count(1), (1, 30), lambda v: _METRO.replace(m_mux=v)),
    *[("NoiseModel", name, _PROBABILITY, (0.0, 1.0), lambda v, n=name: NoiseModel(**{n: v}))
      for name in ("p_link", "q_swap")],
    ("hop_success", "p_click", _PROBABILITY, (0.0, 1.0), lambda v: hop_success(v, 3)),
    ("hop_success", "m_mux", _count(1), (1, 30), lambda v: hop_success(0.5, v)),
    ("chain_purity", "hops", _count(1), (1, 6), lambda v: chain_purity(v, NoiseModel())),
    ("chain_fidelity", "hops", _count(1), (1, 6), lambda v: chain_fidelity(v, NoiseModel())),
    ("simulate_chain", "hops", _count(1), (1, 6), lambda v: simulate_chain(_CHIP, v)),
    ("simulate_chain", "p_click_override", _PROBABILITY, (None, 0.0, 1.0),
     lambda v: simulate_chain(_CHIP, 2, p_click_override=v)),
    ("werner_state", "p", _PROBABILITY, (0.0, 1.0), werner_state),
    ("depolarize", "q", _PROBABILITY, (0.0, 1.0), lambda v: depolarize(werner_state(0.9), v)),
    ("beam_splitter_unitary", "beta", _REAL[None], (-2.0, 0.0),
     lambda v: beam_splitter_unitary(v, 1.0)),
    ("beam_splitter_unitary", "t", _REAL[None], (-2.0, 0.0),
     lambda v: beam_splitter_unitary(1.0, v)),
    ("swap_time", "g_bs", _REAL["> 0"], (1e-3, 1e18), swap_time),
    ("heralded_link_probability", "length_km", _REAL[">= 0"], (0.0, 20.0),
     heralded_link_probability),
    ("heralded_link_probability", "attenuation_length_km", _REAL["> 0"], (1e-3, 10.0),
     lambda v: heralded_link_probability(1.0, v)),
    ("integrate_pair", "t_final", _REAL["> 0"], (1e-9,), lambda v: integrate_pair(_P, v, 10)),
    ("integrate_pair", "n_steps", _count(1), (1, 10), lambda v: integrate_pair(_P, 1e-9, v)),
    ("evolve", "t_final", _REAL["> 0"], (1e-9,), lambda v: evolve(initial_pair_state(_P), _P, v)),
    ("evolve", "record_every", _count(1), (1, 7),
     lambda v: evolve(initial_pair_state(_P), _P, 1e-9, record_every=v)),
]


@pytest.mark.parametrize("subject, value, call", [
    pytest.param(subject, value, call, id=f"{name}-{subject}-{value!r}")
    for name, subject, refused, _, call in TABLE for value in refused
])
def test_refused_by_name(subject, value, call):
    with pytest.raises(ValueError, match=f"^{re.escape(subject)}( must |=)"):
        call(value)


@pytest.mark.parametrize("value, call", [
    pytest.param(value, call, id=f"{name}-{subject}-{value!r}")
    for name, subject, _, accepted, call in TABLE for value in accepted
])
def test_accepted(value, call):
    call(value)
