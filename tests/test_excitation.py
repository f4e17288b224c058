"""The pair run on the single-excitation block against the full master equation."""
import dataclasses
import random
import re

import numpy as np
import pytest

from magrep import dynamics, excitation
from magrep.cli import _fmt, main
from magrep.dynamics import IntegrationError, LindbladParams, TWO_PI

LABELS = ["00", "01", "10", "11"]


def _rwa_liouvillian(p: LindbladParams) -> np.ndarray:
    return dynamics._liouvillian(dynamics.build_rwa_hamiltonian(p), dynamics.collapse_operators(p))


def _block_index(dim: int) -> list[int]:
    """Row-major vec index of each of ENTRIES at truncation ``dim`` of both modes."""
    level = {0: 0, 1: 1, 2: dim}  # |00>, |0_m 1_c>, |1_m 0_c> in the basis n_m * dim_c + n_c
    return [level[i] * dim * dim + level[j] for i, j in excitation.ENTRIES]


def _random_rates(seed: int) -> LindbladParams:
    rng = random.Random(seed)
    return LindbladParams(**{name: TWO_PI * rng.uniform(0.05, 20.0) * 1e6
                             for name in ("kappa_d", "gamma_d", "kappa_phi", "gamma_phi")})


PARAMS = {"defaults": LindbladParams(), "ideal": LindbladParams().without_dissipation(),
          **{f"random{seed}": _random_rates(seed) for seed in (1, 2, 3)}}


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_rwa_pair_reaches_exactly_the_five_entries(dim):
    gen = _rwa_liouvillian(LindbladParams(dim_c=dim, dim_m=dim))
    start = dim * dim + 1  # |0_m 1_c><0_m 1_c|
    reached, frontier = {start}, [start]
    while frontier:
        for row in np.flatnonzero(gen[:, frontier.pop()]):
            if int(row) not in reached:
                reached.add(int(row))
                frontier.append(int(row))
    assert reached == set(_block_index(dim))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("name", sorted(PARAMS))
def test_closed_form_generator_is_the_liouvillian_restriction(name, dim):
    p = PARAMS[name]
    full = _rwa_liouvillian(dataclasses.replace(p, dim_c=dim, dim_m=dim))
    block = np.ix_(_block_index(dim), _block_index(dim))
    gen = np.array(excitation.generator(p))
    scale = np.max(np.abs(full))
    assert np.max(np.abs(gen - full[block])) <= 1e-12 * scale
    dt = dynamics.default_step(p)
    step = np.array(excitation.step_matrix(excitation.generator(p), dt))
    assert np.max(np.abs(step - dynamics.rk4_step_matrix(full, dt)[block])) <= 1e-12


def _run_pair(tmp_path, monkeypatch, config: str, *flags: str):
    """``magrep pair`` on ``config``; returns its exit code and the calls of integrate_pair."""
    calls = []
    integrate_pair = excitation.integrate_pair

    def recording(p, t_final, n_steps):
        calls.append((p, t_final, n_steps))
        return integrate_pair(p, t_final, n_steps)

    monkeypatch.setattr(excitation, "integrate_pair", recording)
    (tmp_path / "run.cfg").write_text(config)
    code = main(["pair", "--config", str(tmp_path / "run.cfg"), "--out", str(tmp_path / "out"),
                 *flags])
    return code, calls


@pytest.mark.parametrize("config, flags", [
    ("", ()),
    ("", ("--ideal",)),
    ("t_final = 2.5 ns\ndt = 0.02 ns\n", ()),
])
def test_every_record_matches_evolve_on_the_same_grid(tmp_path, monkeypatch, config, flags):
    code, [(p, t_final, n_steps)] = _run_pair(tmp_path, monkeypatch, config, *flags)
    assert code == 0
    block = excitation.integrate_pair(p, t_final, n_steps)
    full = dynamics.evolve(dynamics.initial_pair_state(p), p, t_final, dt=t_final / n_steps)
    assert len(block.times) == len(full.times) == n_steps + 1
    assert np.max(np.abs(np.array(block.times) - full.times)) <= 1e-12 * t_final
    states = np.array([block.state(k) for k in range(len(block.times))])
    assert np.max(np.abs(states - full.states)) <= 1e-12
    assert np.max(np.abs(np.array(block.concurrences) - full.concurrences)) <= 1e-12


def test_unstable_step_fails_at_the_record_evolve_names(tmp_path, monkeypatch, capsys):
    # the configuration of test_cli's unstable-step test: positivity is lost in the first step
    config = "dt = 5 ns\nt_final = 100 ns\nkappa_d = 2000 MHz\n"
    code, [(p, t_final, n_steps)] = _run_pair(tmp_path, monkeypatch, config)
    assert code == 3
    err = capsys.readouterr().err
    assert "positive semidefinite" in err
    with pytest.raises(IntegrationError, match="positive semidefinite") as full:
        dynamics.evolve(dynamics.initial_pair_state(p), p, t_final, dt=t_final / n_steps)
    assert err == f"error: {full.value}\n"


@pytest.mark.parametrize("record, failure", [
    ([0j, 1 + 0j, complex("nan"), 0j, 0j], "non-finite state entry, largest magnitude nan"),
    ([0j, 0.6 + 0j, 0.6 + 0j, 0j, 0j], "trace drifted by 2.000e-01"),
    ([0j, 0.5 + 0j, 0.5 + 0j, 1e-6j, 0j], "not Hermitian: max deviation 1.000e-06"),
    ([0j, 1 + 0j, 0j, 0.1j, -0.1j], "positive semidefinite: min eigenvalue -9.902e-03"),
])
def test_record_checks_name_the_failure_and_the_time(record, failure):
    with pytest.raises(IntegrationError, match=re.escape(f"{failure} at t=2.000e-09 s")):
        excitation._check_record(record, 2e-9)
    full = np.array([[0j] * 4 for _ in range(4)])
    for (i, j), z in zip(excitation.ENTRIES, record):
        full[i, j] = z
    with pytest.raises(IntegrationError, match=re.escape(failure)):
        dynamics._check_records(full[None], np.array([2e-9]))


def test_generate_bell_pair_with_a_step_beyond_the_quarter_period(tmp_path, monkeypatch):
    # dt = 2 ns exceeds t_q (0.96 ns at the defaults): one step of t_q, as `magrep pair` takes
    code, [(p, t_final, n_steps)] = _run_pair(tmp_path, monkeypatch, "dt = 2 ns\n")
    assert code == 0 and n_steps == 3
    state, _ = dynamics.generate_bell_pair(LindbladParams(), dt=2e-9)
    record = np.array(excitation.integrate_pair(p, t_final, n_steps).state(1))
    assert np.max(np.abs(state.matrix - record)) <= 1e-12
    rows = (tmp_path / "out" / "pair_dm.csv").read_text().splitlines()[1:]
    assert rows == [
        ",".join([a, b, _fmt(z.real), _fmt(z.imag), _fmt(abs(z))])
        for a, row in zip(LABELS, state.matrix) for b, z in zip(LABELS, row)
    ]


def test_whole_steps_shrinks_dt_to_cover_the_span():
    assert excitation.whole_steps(1.0, 0.25) == 4
    assert excitation.whole_steps(1.0, 0.3) == 4
    assert excitation.whole_steps(0.9, 0.03) == 30  # 0.9 / 0.03 = 30.000000000000004 adds no step
    assert excitation.whole_steps(0.3, 1.0) == 1


@pytest.mark.parametrize("name", ["Full", "exact", "RWA"])
def test_unknown_hamiltonian_name_is_rejected(name):
    p = LindbladParams()
    message = re.escape(f"hamiltonian must be 'rwa' or 'full', got {name!r}")
    with pytest.raises(ValueError, match=message):
        excitation.default_step(p, name)
    with pytest.raises(ValueError, match=message):
        excitation.pair_steps(p, name)
    with pytest.raises(ValueError, match=message):
        dynamics.evolve(dynamics.initial_pair_state(p), p, 1e-9, dt=1e-11, hamiltonian=name)
