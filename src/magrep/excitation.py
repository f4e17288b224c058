"""Pair generation on the node's single-excitation block, in plain Python.

The resonant rotating-frame exchange g (m^dag c + c^dag m) conserves the
excitation number, and each collapse operator keeps it (dephasing) or lowers
it by one (decay). Started from |0_m 1_c><0_m 1_c|, the master equation
therefore moves only five density-matrix entries, :data:`ENTRIES`; every
other entry stays exactly 0, at any truncation. This module integrates those
five with the RK4 step of :func:`magrep.dynamics.evolve` and checks every
record as ``evolve`` does, without numpy, so ``magrep pair`` never loads it.

Units: all frequencies and rates are angular (rad/s); times are seconds.
"""
from __future__ import annotations

import cmath
import math

from .params import (
    HERMITIAN_TOL, PSD_TOL, TRACE_DRIFT_LIMIT, IntegrationError, LindbladParams, Value,
    check_count, check_real,
)

# Target phase advance per integration step, in radians of the fastest scale.
_STEP_PHASE_BUDGET = 0.005

# The reachable entries as (row, column) of the two-mode state, basis index
# n_m * 2 + n_c: rho_00,00, rho_01,01, rho_10,10, rho_01,10 and rho_10,01.
ENTRIES = ((0, 0), (1, 1), (2, 2), (1, 2), (2, 1))


def check_hamiltonian(p: LindbladParams, name: str) -> None:
    """Accept the two node Hamiltonians: ``"rwa"`` (rotating frame) and ``"full"`` (lab frame).

    The rotating-frame model is the resonant one, so ``"rwa"`` refuses a node
    whose cavity and magnon frequencies differ.
    """
    if name not in ("rwa", "full"):
        raise ValueError(f"hamiltonian must be 'rwa' or 'full', got {name!r}")
    if name == "rwa" and p.omega_c != p.omega_m:
        raise ValueError(
            f"the rwa Hamiltonian is resonant: omega_c={p.omega_c!r} and omega_m={p.omega_m!r}"
            " rad/s differ; use 'full' for a detuned node"
        )


def whole_steps(span: float, dt: float) -> int:
    """Steps covering ``span`` exactly, ``dt`` shrunk (never grown) to fit; >= 1.

    A ``dt <= 0``, a ``span <= 0``, or a ``span / dt`` that is not a finite
    float (a NaN span, or one beyond the largest float) has no step count:
    ``ValueError``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if span <= 0:
        raise ValueError(f"span must be > 0, got {span}")
    ratio = span / dt
    if not math.isfinite(ratio):
        raise ValueError(f"span / dt = {span!r} / {dt!r} is not a finite number of steps")
    return max(1, math.ceil(ratio - 1e-9))


def default_step(p: LindbladParams, hamiltonian: str = "rwa") -> float:
    """Step size keeping the fastest phase advance near 0.005 rad per step."""
    check_hamiltonian(p, hamiltonian)
    if hamiltonian == "rwa":
        scale = p.g_mc
    else:
        scale = p.omega_c + p.omega_m + 2.0 * p.g_mc
    scale = max(scale, p.kappa_d, p.gamma_d, p.kappa_phi, p.gamma_phi)
    if scale <= 0:
        raise ValueError("cannot choose a default step for an all-zero parameter set")
    return _STEP_PHASE_BUDGET / scale


def pair_generation_time(p: LindbladParams) -> float:
    """Quarter of the excitation-exchange period, when entanglement peaks."""
    if p.g_mc <= 0:
        raise ValueError("pair generation requires g_mc > 0")
    return math.pi / (4.0 * p.g_mc)


def pair_steps(p: LindbladParams, hamiltonian: str = "rwa", dt: float | None = None) -> int:
    """Steps of :func:`generate_bell_pair`: ``dt`` shrunk to land on the quarter period, >= 1."""
    check_hamiltonian(p, hamiltonian)
    dt = default_step(p, hamiltonian) if dt is None else dt
    return whole_steps(pair_generation_time(p), dt)


def generator(p: LindbladParams) -> list[list[complex]]:
    """The RWA Liouvillian restricted to :data:`ENTRIES`, in closed form.

    Decay feeds rho_00,00 from both populations; the exchange couples each
    population to the two coherences at +-ig; all four rates damp the
    coherences at half their sum.
    """
    ig = 1j * p.g_mc
    half = 0.5 * (p.kappa_d + p.gamma_d + p.kappa_phi + p.gamma_phi)
    return [
        [0j, p.kappa_d, p.gamma_d, 0j, 0j],
        [0j, -p.kappa_d, 0j, ig, -ig],
        [0j, 0j, -p.gamma_d, -ig, ig],
        [0j, ig, -ig, -half, 0j],
        [0j, -ig, ig, 0j, -half],
    ]


def _matmul(a: list[list[complex]], b: list[list[complex]]) -> list[list[complex]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def step_matrix(gen: list[list[complex]], dt: float) -> list[list[complex]]:
    """RK4 step of ``dv/dt = gen v``: rk4_step_matrix's polynomial, Horner form j = 4, 3, 2, 1."""
    n = len(gen)
    a = [[dt * x for x in row] for row in gen]
    m = [[complex(i == k) for k in range(n)] for i in range(n)]
    for j in (4.0, 3.0, 2.0, 1.0):
        m = _matmul([[x / j for x in row] for row in a], m)
        for i in range(n):
            m[i][i] += 1.0
    return m


class BlockTrace(Value):
    """Recorded pair run: ``records[k]`` holds the :data:`ENTRIES` at ``times[k]``."""

    times: tuple[float, ...]
    records: tuple[tuple[complex, ...], ...]

    @property
    def concurrences(self) -> list[float]:
        """Wootters concurrence of each record: 2|rho_01,10| for this X state."""
        return [2.0 * abs(r[3]) for r in self.records]

    @property
    def populations(self) -> list[tuple[float, float, float, float]]:
        """pop_00, pop_01, pop_10 and pop_11 (never reached) of each record."""
        return [(r[0].real, r[1].real, r[2].real, 0.0) for r in self.records]

    def state(self, k: int) -> list[list[complex]]:
        """Record ``k`` as the full 4x4 density matrix."""
        rho = [[0j] * 4 for _ in range(4)]
        for (i, j), z in zip(ENTRIES, self.records[k]):
            rho[i][j] = z
        return rho


def _check_record(v: list[complex], t: float) -> None:
    """The record checks of :func:`magrep.dynamics.evolve`, on the block.

    Same definitions, tolerances and messages; each comparison fails on NaN.
    (rho + rho^dag)/2 splits into rho_00,00, the 01/10 block and the unreached
    |11> level, so its smallest eigenvalue has a closed form.
    """
    aa, p1, p2, x, y = v
    if not all(map(cmath.isfinite, v)):
        mags = [abs(z) for z in v]
        worst = math.nan if any(map(math.isnan, mags)) else max(mags)
        failed = ("non-finite state entry, largest magnitude", worst)
    else:
        tr_err = abs(aa + p1 + p2 - 1.0)
        herm_err = max(abs(aa - aa.conjugate()), abs(p1 - p1.conjugate()),
                       abs(p2 - p2.conjugate()), abs(x - y.conjugate()))
        mean, spread = 0.5 * (p1.real + p2.real), 0.5 * (p1.real - p2.real)
        min_eig = min(aa.real, 0.0, mean - math.hypot(spread, abs(0.5 * (x + y.conjugate()))))
        if not tr_err <= TRACE_DRIFT_LIMIT:
            failed = ("trace drifted by", tr_err)
        elif not herm_err <= HERMITIAN_TOL:
            failed = ("matrix not Hermitian: max deviation", herm_err)
        elif not min_eig >= -PSD_TOL:
            failed = ("matrix not positive semidefinite: min eigenvalue", min_eig)
        else:
            return
    what, value = failed
    raise IntegrationError(f"{what} {value:.3e} at t={t:.3e} s; refusing to repair")


def integrate_pair(p: LindbladParams, t_final: float, n_steps: int) -> BlockTrace:
    """RWA pair run from |0_m 1_c> over ``[0, t_final]`` in ``n_steps`` equal steps, all recorded.

    Each step applies :func:`step_matrix` of :func:`generator` to the block.
    Every record is checked: entries finite, trace within 1e-6 of 1,
    Hermitian within 1e-9 and eigenvalues >= -1e-9. The earliest failure
    raises :class:`IntegrationError` naming the check, the value and the
    time; no state is renormalized. ``t_final`` must be finite and > 0.
    """
    check_real("t_final", t_final, "> 0")
    check_count("n_steps", n_steps)
    dt = t_final / n_steps
    step = step_matrix(generator(p), dt)
    v = [0j, 1 + 0j, 0j, 0j, 0j]
    times, records = [], []
    for k in range(n_steps + 1):
        if k:
            # each sum starts at +0, as sum() does, so no zero entry turns -0 (CSV "-0")
            v0, v1, v2, v3, v4 = v
            v = [0j + s0 * v0 + s1 * v1 + s2 * v2 + s3 * v3 + s4 * v4
                 for s0, s1, s2, s3, s4 in step]
        times.append(k * dt)
        _check_record(v, times[-1])
        records.append(tuple(v))
    return BlockTrace(tuple(times), tuple(records))
