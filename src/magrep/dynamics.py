"""Cavity-magnon node dynamics under the Lindblad master equation.

A node couples one microwave cavity mode to one magnon mode (both truncated,
two levels by default). The module builds the beam-exchange Hamiltonians and
the four decay/dephasing collapse operators, integrates the master equation
with a fixed-step classical 4th-order scheme, and produces the heralded
cavity-magnon Bell pair.

Units: all frequencies and rates are angular (rad/s); times are seconds.
"""
from __future__ import annotations

import math

import numpy as np

from .excitation import (
    check_hamiltonian,
    default_step,
    pair_generation_time,
    pair_steps,
    whole_steps,
)
from .params import (
    HERMITIAN_TOL,
    PSD_TOL,
    TRACE_DRIFT_LIMIT,
    IntegrationError,
    LindbladParams,
    Value,
    check_count,
)
from .qcore import (
    DensityMatrix,
    HilbertSpec,
    basis_ket,
    concurrence,  # noqa: F401  (unused here; perfbench's tests patch this binding)
)


class EvolutionTrace(Value, eq=False):
    """Recorded master-equation run.

    ``states[k]`` is the checked state at ``times[k]`` in the product basis
    |n_m n_c>, one read-only ``(n, D, D)`` array that ``populations`` and
    ``final_state`` read; for two qubits ``qcore.concurrences(states)`` gives
    every record's concurrence. The diagnostic arrays witness
    trace/Hermiticity/positivity drift.
    """

    space: HilbertSpec
    times: np.ndarray
    states: np.ndarray
    trace_errors: np.ndarray
    herm_errors: np.ndarray
    min_eigenvalues: np.ndarray

    def __repr__(self) -> str:  # omits the (n, D, D) state stack and the diagnostic arrays
        return f"EvolutionTrace(space={self.space!r}, times={self.times!r})"

    @property
    def populations(self) -> np.ndarray:
        return np.diagonal(self.states, axis1=1, axis2=2).real

    @property
    def final_state(self) -> DensityMatrix:
        return DensityMatrix(self.space, self.states[-1])


def destroy(dim: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``dim`` levels."""
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def node_space(p: LindbladParams) -> HilbertSpec:
    """Joint (magnon, cavity) space; basis index is n_m * dim_c + n_c."""
    return HilbertSpec((("m", p.dim_m), ("c", p.dim_c)))


def mode_operators(p: LindbladParams) -> tuple[np.ndarray, np.ndarray]:
    """Magnon and cavity annihilation operators on the joint space."""
    m_op = np.kron(destroy(p.dim_m), np.eye(p.dim_c))
    c_op = np.kron(np.eye(p.dim_m), destroy(p.dim_c))
    return m_op, c_op


def build_full_hamiltonian(p: LindbladParams) -> np.ndarray:
    """Lab-frame Hamiltonian: bare mode energies plus the full exchange term."""
    m_op, c_op = mode_operators(p)
    md, cd = m_op.conj().T, c_op.conj().T
    return p.omega_c * cd @ c_op + p.omega_m * md @ m_op + p.g_mc * (m_op + md) @ (c_op + cd)


def build_rwa_hamiltonian(p: LindbladParams) -> np.ndarray:
    """Resonant rotating-frame Hamiltonian keeping only the excitation-swap term."""
    m_op, c_op = mode_operators(p)
    return p.g_mc * (m_op.conj().T @ c_op + c_op.conj().T @ m_op)


def collapse_operators(p: LindbladParams) -> np.ndarray:
    """The four collapse operators as one ``(K, D, D)`` stack on the joint space.

    Each already carries its sqrt(rate) prefactor: cavity decay, magnon decay,
    cavity dephasing (number operator), magnon dephasing.
    """
    m_op, c_op = mode_operators(p)
    n_c = c_op.conj().T @ c_op
    n_m = m_op.conj().T @ m_op
    return np.array([
        math.sqrt(p.kappa_d) * c_op,
        math.sqrt(p.gamma_d) * m_op,
        math.sqrt(p.kappa_phi) * n_c,
        math.sqrt(p.gamma_phi) * n_m,
    ])


def lindblad_rhs(rho: np.ndarray, hamiltonian: np.ndarray, collapses: np.ndarray) -> np.ndarray:
    """Right-hand side of the master equation for a ``(D, D)`` array; trace-free for any input.

    ``collapses`` is a ``(K, D, D)`` operator stack, as :func:`collapse_operators`
    returns it. This is the direct form that :func:`_liouvillian` is tested against.
    """
    m = np.asarray(rho, dtype=complex)
    h = np.asarray(hamiltonian, dtype=complex)
    if h.shape != m.shape:
        raise ValueError(f"dimension mismatch: state {m.shape} vs hamiltonian {h.shape}")
    out = -1j * (h @ m - m @ h)
    for op in np.asarray(collapses, dtype=complex):
        if op.shape != m.shape:
            raise ValueError(f"dimension mismatch: state {m.shape} vs collapse {op.shape}")
        od = op.conj().T
        odo = od @ op
        out += op @ m @ od - 0.5 * (odo @ m + m @ odo)
    return out


def _hamiltonian_for(p: LindbladParams, which: str) -> np.ndarray:
    check_hamiltonian(p, which)
    return build_rwa_hamiltonian(p) if which == "rwa" else build_full_hamiltonian(p)


def _effective_hamiltonian(h: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """H_eff = H - (i/2) sum_k C_k^dag C_k, the non-Hermitian no-jump generator."""
    return h - 0.5j * (jumps.conj().swapaxes(1, 2) @ jumps).sum(axis=0)


def _liouvillian(h: np.ndarray, jumps: np.ndarray) -> np.ndarray:
    """Generator as a D^2 x D^2 matrix acting on the row-major vec of rho.

    Closed Kronecker form from vec(A X B) = np.kron(A, B^T) vec(X) (Havel,
    J. Math. Phys. 44, 534 (2003)):
    L = -i np.kron(H_eff, I) + i np.kron(I, conj(H_eff)) + sum_k np.kron(C_k, conj(C_k)).
    """
    h_eff = _effective_hamiltonian(h, jumps)
    eye = np.eye(h.shape[0])
    sup = -1j * np.kron(h_eff, eye) + 1j * np.kron(eye, h_eff.conj())
    for c in jumps:
        sup += np.kron(c, c.conj())
    return sup


def rk4_step_matrix(generator: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order step for a linear autonomous system.

    For d rho/dt = L rho the four-stage scheme collapses exactly to the
    degree-4 Taylor polynomial of exp(dt L); applying this matrix per step is
    algebraically identical to evaluating the stages.
    """
    eye = np.eye(generator.shape[0], dtype=complex)
    a = dt * generator
    m = eye + a / 4.0
    m = eye + (a / 3.0) @ m
    m = eye + (a / 2.0) @ m
    return eye + a @ m


# Propagation cost model, in complex multiply-adds. One numpy call costs
# about as much as _CALL_COST of them on small operands (single-threaded
# BLAS), so at small D the number of calls matters more than the flops.
_CALL_COST = 6000
# Horner stages of the RK4 polynomial; see rk4_step_matrix.
_HORNER = (4.0, 3.0, 2.0, 1.0)


def _block_plan(d2: int, length: int, uses: int) -> tuple[float, bool]:
    """Cost of ``uses`` advances by ``length`` steps, and whether S^length pays.

    S^length comes from repeated squaring (numpy's matrix_power): one matmul
    per squaring and one per extra set bit. Stepping costs one matvec a step.
    """
    matvec = d2 * d2 + _CALL_COST
    stepping = uses * length * matvec
    matmuls = length.bit_length() - 1 + bin(length).count("1") - 1
    power = matmuls * (d2**3 + _CALL_COST) + uses * matvec
    return min(stepping, power), power < stepping


def _segments(n_steps: int, record_every: int) -> list[int]:
    """Step counts between consecutive records; the last one ends at n_steps."""
    full, rest = divmod(n_steps, record_every)
    return [record_every] * full + ([rest] if rest else [])


def _dense_cost(dim: int, segments: list[int]) -> float:
    d2 = dim * dim
    build = 3 * (d2**3 + _CALL_COST)  # the three matmuls of rk4_step_matrix
    return build + sum(_block_plan(d2, n, segments.count(n))[0] for n in set(segments))


def _matrix_free_cost(dim: int, n_jumps: int, n_steps: int) -> float:
    # Per Horner stage: a stacked (K+2)-term matmul each side, plus an add.
    stage = 2 * (n_jumps + 2) * dim**3 + 3 * _CALL_COST
    return n_steps * len(_HORNER) * stage


def _propagate_dense(rho: np.ndarray, h: np.ndarray, jumps: np.ndarray, dt: float,
                     segments: list[int]) -> np.ndarray:
    """Records of the dense D^2 x D^2 RK4 step, advanced by S^r where that pays."""
    step = rk4_step_matrix(_liouvillian(h, jumps), dt)
    d2 = step.shape[0]
    blocks = {}
    for n in set(segments):
        if _block_plan(d2, n, segments.count(n))[1]:
            blocks[n] = np.linalg.matrix_power(step, n)
    out = np.empty((len(segments) + 1, d2), dtype=complex)
    out[0] = v = rho.reshape(-1)
    for i, n in enumerate(segments, start=1):
        if n in blocks:
            v = blocks[n] @ v
        else:
            for _ in range(n):
                v = step @ v
        out[i] = v
    return out.reshape(-1, *rho.shape)


def _propagate_matrix_free(rho: np.ndarray, h: np.ndarray, jumps: np.ndarray, dt: float,
                           segments: list[int]) -> np.ndarray:
    """Records of the RK4 step applied to the D x D state; no superoperator is built.

    L(m) = A m + m A^dag + sum_k C_k m C_k^dag with A = -i H_eff is two matmuls
    over a stacked batch: m @ [I, A^dag, C_k^dag] and then the row block
    [A, I, C_k] times those products stacked. The step is the polynomial of
    rk4_step_matrix in Horner form, x <- m + (dt/j) L(x) for j = 4, 3, 2, 1.
    """
    d = rho.shape[0]
    a = -1j * _effective_hamiltonian(h, jumps)
    eye = np.eye(d, dtype=complex)
    rights = np.concatenate([eye[None], a.conj().T[None], jumps.conj().swapaxes(1, 2)])
    left = np.concatenate([a, eye, *jumps], axis=1)
    lefts = [left * (dt / j) for j in _HORNER]
    out = np.empty((len(segments) + 1, d, d), dtype=complex)
    out[0] = m = rho
    for i, n in enumerate(segments, start=1):
        for _ in range(n):
            x = m
            for scaled in lefts:
                x = m + scaled @ (x @ rights).reshape(-1, d)
            m = x
        out[i] = m
    return out


# Bytes of records checked at once. The margins need temporaries the size of
# what they check (the copy with non-finite entries zeroed, the adjoint, the
# difference and its magnitudes, the Hermitian part and its half), so one pass
# over every record held about four copies of the stack: 3.6 MB for the 0.8 MB
# of a 5x5 pair run. Blocks of 128 KiB bound that at about 0.4 MB for any
# record count, and are still large enough (13 records at 5x5, 32 at 4x4, a
# whole pair run at 3x3 or under the full Hamiltonian) that the per-call cost
# of numpy stays small.
_CHECK_BLOCK_BYTES = 128 * 1024


def _check_records(states: np.ndarray, times: np.ndarray):
    """Invariant checks on every recorded state, block by block; the earliest failure raises.

    Every comparison is written so that NaN fails it. Returns the trace
    errors, Hermiticity errors and minimum eigenvalues per record; each
    margin depends only on its own record, so the blocks change no value.
    """
    n, d, _ = states.shape
    per_block = max(1, _CHECK_BLOCK_BYTES // (d * d * states.itemsize))
    tr_err, herm_err, min_eig = np.empty(n), np.empty(n), np.empty(n)
    for lo in range(0, n, per_block):
        block = states[lo:lo + per_block]
        hi = lo + len(block)
        finite = np.isfinite(block).all(axis=(1, 2))
        safe = block if finite.all() else np.where(finite[:, None, None], block, 0.0)
        adjoint = safe.conj().swapaxes(1, 2)
        tr_err[lo:hi] = tr = np.abs(np.trace(safe, axis1=1, axis2=2) - 1.0)
        herm_err[lo:hi] = herm = np.max(np.abs(safe - adjoint), axis=(1, 2))
        min_eig[lo:hi] = low = np.linalg.eigvalsh(0.5 * (safe + adjoint))[:, 0]
        checks = (
            (finite, "non-finite state entry, largest magnitude", None),
            (tr <= TRACE_DRIFT_LIMIT, "trace drifted by", tr),
            (herm <= HERMITIAN_TOL, "matrix not Hermitian: max deviation", herm),
            (low >= -PSD_TOL, "matrix not positive semidefinite: min eigenvalue", low),
        )
        ok = np.logical_and.reduce([passed for passed, _, _ in checks])
        if not ok.all():
            k = int(np.argmin(ok))
            _, what, values = next(c for c in checks if not c[0][k])
            value = np.max(np.abs(block[k])) if values is None else values[k]
            raise IntegrationError(f"{what} {value:.3e} at t={times[lo + k]:.3e} s; refusing to repair")
    return tr_err, herm_err, min_eig


def evolve(
    rho0: DensityMatrix,
    p: LindbladParams,
    t_final: float,
    dt: float | None = None,
    record_every: int = 1,
    hamiltonian: str = "rwa",
) -> EvolutionTrace:
    """Integrate the master equation from ``rho0`` over ``[0, t_final]``.

    Fixed-step classical 4th-order integration; the requested ``dt`` is
    shrunk minimally so an integral number of steps lands exactly on
    ``t_final``. The step is the dense D^2 x D^2 RK4 matrix, advanced from
    record to record by its power where that is cheaper, or the same step
    applied to the D x D state without a superoperator, whichever the cost
    model rates cheaper for this D and step count.

    Every recorded state is checked: entries finite, trace within 1e-6 of 1,
    Hermitian within 1e-9 and eigenvalues >= -1e-9, the one positivity floor
    (``params.PSD_TOL``) that :class:`DensityMatrix`, the concurrence and the
    fidelity also apply, at every truncation. The checks run over blocks of
    consecutive records of at most ``_CHECK_BLOCK_BYTES`` (128 KiB, or one
    record if a record is larger), so their temporaries stay bounded by the
    block, not the record count; the earliest failing record raises
    :class:`IntegrationError` naming the check, the value and the time; no
    state is renormalized.
    """
    space = node_space(p)
    if rho0.space != space:
        raise ValueError(f"initial state lives on {rho0.space.labels}/{rho0.space.dims}, expected {space.labels}/{space.dims}")
    if dt is None:
        dt = default_step(p, hamiltonian)
    if t_final < dt:
        raise ValueError(f"t_final ({t_final}) must be >= dt ({dt})")
    check_count("record_every", record_every)

    h = _hamiltonian_for(p, hamiltonian)
    jumps = collapse_operators(p)
    dim = space.dim
    n_steps = whole_steps(t_final, dt)
    dt_used = t_final / n_steps
    segments = _segments(n_steps, record_every)
    if _dense_cost(dim, segments) <= _matrix_free_cost(dim, len(jumps), n_steps):
        states = _propagate_dense(rho0.matrix, h, jumps, dt_used, segments)
    else:
        states = _propagate_matrix_free(rho0.matrix, h, jumps, dt_used, segments)
    times = np.cumsum([0, *segments]) * dt_used

    tr_errs, herm_errs, min_eigs = _check_records(states, times)
    states.setflags(write=False)
    return EvolutionTrace(
        space=space,
        times=times,
        states=states,
        trace_errors=tr_errs,
        herm_errors=herm_errs,
        min_eigenvalues=min_eigs,
    )


def initial_pair_state(p: LindbladParams) -> DensityMatrix:
    """|0_m 1_c>: one cavity photon, magnon in its ground state."""
    space = node_space(p)
    return DensityMatrix.from_ket(space, basis_ket(space, (0, 1)))


def target_pair_ket(p: LindbladParams) -> np.ndarray:
    """The heralded pair target (|0_m 1_c> - i |1_m 0_c>)/sqrt(2), as a ket on the node basis."""
    space = node_space(p)
    return (basis_ket(space, (0, 1)) - 1j * basis_ket(space, (1, 0))) / math.sqrt(2.0)


def generate_bell_pair(
    p: LindbladParams,
    hamiltonian: str = "rwa",
    dt: float | None = None,
) -> tuple[DensityMatrix, float]:
    """Evolve |0_m 1_c> for a quarter exchange period under the lossy model.

    ``dt`` is shrunk to whole steps of the quarter period; one beyond it
    becomes a single step. Returns the resulting joint state and its fidelity
    to the ideal pair. The target is pure, so that fidelity is the overlap
    Re <psi|rho|psi>, clamped to [0, 1] as ``qcore.fidelity`` clamps, and no
    state is decomposed for it. The records are checked in blocks of
    ``_CHECK_BLOCK_BYTES`` (see :func:`evolve`).
    """
    t_q = pair_generation_time(p)
    n_steps = pair_steps(p, hamiltonian, dt)
    state = evolve(
        initial_pair_state(p), p, t_q, dt=t_q / n_steps,
        record_every=max(1, n_steps // 64), hamiltonian=hamiltonian,
    ).final_state
    ket = target_pair_ket(p)
    overlap = float(np.real(ket.conj() @ state.matrix @ ket))
    return state, min(1.0, max(0.0, overlap))
