"""The value-type base: construction, immutability, equality and checked ``replace``."""
import math
from pathlib import Path

import numpy as np
import pytest

from magrep.config import ConfigError, RunConfig
from magrep.dynamics import evolve, initial_pair_state
from magrep.network import BUILTIN_SCENARIOS, HopRecord, NoiseModel
from magrep.params import LindbladParams
from magrep.qcore import DensityMatrix, HilbertSpec, qubit_space, werner_state
from magrep.swap import SwapResult, bsm
from helpers import states_close


def test_positional_and_keyword_arguments_follow_field_order_and_defaults():
    assert NoiseModel(0.9) == NoiseModel(p_link=0.9) == NoiseModel(0.9, q_swap=0.967)
    assert NoiseModel().q_swap == 0.967
    hop = HopRecord(2, 0.9, 0.8, 0.5, 0.25, True)
    assert (hop.hop, hop.p_cumulative, hop.usable) == (2, 0.25, True)
    assert LindbladParams(1.0, 2.0).omega_m == 2.0


@pytest.mark.parametrize("build, message", [
    (lambda: NoiseModel(0.9, 0.9, 0.9), "takes 2 arguments, got 3"),
    (lambda: NoiseModel(p_lnk=0.9), "unexpected argument 'p_lnk'"),
    (lambda: NoiseModel(0.9, p_link=0.9), "multiple values for argument 'p_link'"),
    (lambda: SwapResult(probability=0.5, post_state=None), r"missing arguments \['outcome'\]"),
    (lambda: HilbertSpec(), r"missing arguments \['subsystems'\]"),
])
def test_constructor_argument_errors_are_type_errors(build, message):
    with pytest.raises(TypeError, match=message):
        build()


def test_fields_cannot_be_assigned_or_deleted():
    p = LindbladParams()
    with pytest.raises(AttributeError, match="'g_mc'"):
        p.g_mc = 0.0
    with pytest.raises(AttributeError, match="'g_mc'"):
        del p.g_mc
    with pytest.raises(AttributeError, match="'extra'"):
        p.extra = 1
    assert p == LindbladParams()


def test_equal_values_are_equal_objects_with_equal_hashes():
    a = RunConfig(hops=3, output_dir="out/a", noise=NoiseModel(0.9))
    b = RunConfig(hops=3, output_dir=Path("out/a"), noise=NoiseModel(p_link=0.9))
    assert a == b and hash(a) == hash(b)
    assert a != RunConfig(hops=4, output_dir="out/a", noise=NoiseModel(0.9))
    assert len({LindbladParams(), LindbladParams(), LindbladParams().without_dissipation()}) == 2
    assert NoiseModel() != (0.94, 0.967)


def test_constructor_normalisation_still_applies():
    assert RunConfig(output_dir="somewhere").output_dir == Path("somewhere")
    assert HilbertSpec([("a", np.int64(2))]).subsystems == (("a", 2),)
    assert type(HilbertSpec([("a", np.int64(2))]).subsystems[0][1]) is int


def test_replace_changes_only_the_given_fields_and_validates_again():
    base = BUILTIN_SCENARIOS["metro-c"]
    far = base.replace(l_span=50.0)
    assert far.l_span == 50.0 and far.alpha == base.alpha and base.l_span == 10.0
    with pytest.raises(ConfigError, match="hops"):
        RunConfig().replace(hops=0)
    with pytest.raises(ValueError, match="m_mux"):
        base.replace(m_mux=2.5)
    with pytest.raises(ValueError, match="kappa_d"):
        LindbladParams().replace(kappa_d=math.nan)
    with pytest.raises(TypeError, match="unexpected argument 'hop'"):
        RunConfig().replace(hop=3)


def test_density_matrix_and_swap_values_compare_by_identity():
    rho = werner_state(0.9, ("a", "b"))
    same = DensityMatrix(rho.space, rho.matrix)
    assert rho == rho and rho != same
    assert len({rho, same}) == 2
    assert states_close(same, rho)
    joint = DensityMatrix(qubit_space("a", "b", "c", "d"), np.kron(rho.matrix, rho.matrix))
    assert bsm(joint, "b", "c", outcome="psi_minus") != bsm(joint, "b", "c", outcome="psi_minus")


def test_repr_lists_fields_and_omits_the_trace_arrays():
    assert repr(NoiseModel()) == "NoiseModel(p_link=0.94, q_swap=0.967)"
    assert repr(qubit_space("a")) == "HilbertSpec(subsystems=(('a', 2),))"
    p = LindbladParams()
    trace = evolve(initial_pair_state(p), p, 1e-9, dt=2.5e-10)
    text = repr(trace)
    assert text.startswith("EvolutionTrace(space=HilbertSpec(subsystems=(('m', 2), ('c', 2)))")
    assert "times=" in text
    assert "states" not in text and "min_eigenvalues" not in text
