"""Test helpers and independent test oracles, imported by name from the test modules.

The oracles here deliberately avoid the library's own helpers (embedding,
partial trace, eigendecomposition routes) so they stay valid cross-checks.
The module has its own name, not ``conftest``, so that one pytest session can
collect both this suite and ``perfbench/tests``, whose ``conftest`` would
otherwise answer ``from conftest import ...``.
"""
from __future__ import annotations

import random

import numpy as np

from magrep import dynamics, qcore, swap
from magrep.qcore import DensityMatrix, qubit_space

# Entrywise comparison tolerance (absolute).
DEFAULT_ATOL = 1e-10


def matrices_equal(a: np.ndarray, b: np.ndarray, atol: float = DEFAULT_ATOL) -> bool:
    """Entrywise equality of two arrays within an absolute tolerance."""
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol))


def states_close(rho: DensityMatrix, sigma: DensityMatrix, atol: float = DEFAULT_ATOL) -> bool:
    """Same labeled space and entrywise-equal matrices within ``atol``."""
    return rho.space == sigma.space and matrices_equal(rho.matrix, sigma.matrix, atol)


def pair_target(p: dynamics.LindbladParams) -> DensityMatrix:
    """The heralded pair target as a checked state, for the general ``qcore.fidelity``."""
    return DensityMatrix.from_ket(dynamics.node_space(p), dynamics.target_pair_ket(p))


def ginibre_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random full-rank density matrix from a complex Gaussian square root."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace()


def random_two_qubit(rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix(qubit_space("q0", "q1"), ginibre_matrix(rng, 4))


def random_four_qubit(rng: np.random.Generator) -> DensityMatrix:
    return DensityMatrix(qubit_space("q0", "q1", "q2", "q3"), ginibre_matrix(rng, 16))


# Brute-force concurrence: general (non-Hermitian) eigenvalue route.
_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


def concurrence_oracle(rho4: np.ndarray) -> float:
    m = np.asarray(rho4, dtype=complex)
    prod = m @ (_YY @ m.conj() @ _YY)
    lam = np.sqrt(np.clip(np.linalg.eigvals(prod).real, 0.0, None))
    lam = np.sort(lam)[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


# Brute-force Bell-state measurement on qubits (q1, q2) of a 4-qubit register
# ordered (q0, q1, q2, q3): explicit 16x16 projection, loop-based partial
# trace, correction on the last surviving qubit.
_S2 = 1.0 / np.sqrt(2.0)
_BF_BELL = {
    0: np.array([0, 1, 1, 0], dtype=complex) * _S2,   # psi_plus
    1: np.array([0, 1, -1, 0], dtype=complex) * _S2,  # psi_minus
    2: np.array([1, 0, 0, 1], dtype=complex) * _S2,   # phi_plus
    3: np.array([1, 0, 0, -1], dtype=complex) * _S2,  # phi_minus
}
_BF_X = np.array([[0, 1], [1, 0]], dtype=complex)
_BF_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_BF_CORR = {0: _BF_Z, 1: np.eye(2, dtype=complex), 2: _BF_Z @ _BF_X, 3: _BF_X}


def brute_force_bsm(rho16: np.ndarray, outcome: int) -> tuple[float, np.ndarray]:
    """Probability and corrected (q0, q3) state for a Bell click on (q1, q2)."""
    vec = _BF_BELL[outcome]
    proj4 = np.outer(vec, vec.conj())
    proj16 = np.kron(np.kron(np.eye(2, dtype=complex), proj4), np.eye(2, dtype=complex))
    prob = float(np.real(np.trace(proj16 @ rho16)))
    post = proj16 @ rho16 @ proj16 / prob

    def idx(i0, i1, i2, i3):
        return 8 * i0 + 4 * i1 + 2 * i2 + i3

    reduced = np.zeros((4, 4), dtype=complex)
    for i0 in range(2):
        for i3 in range(2):
            for j0 in range(2):
                for j3 in range(2):
                    acc = 0.0 + 0.0j
                    for k1 in range(2):
                        for k2 in range(2):
                            acc += post[idx(i0, k1, k2, i3), idx(j0, k1, k2, j3)]
                    reduced[2 * i0 + i3, 2 * j0 + j3] = acc
    corr = np.kron(np.eye(2, dtype=complex), _BF_CORR[outcome])
    return prob, corr @ reduced @ corr.conj().T


def single_excitation_block(
    g: float,
    kappa_d: float,
    gamma_d: float,
    kappa_phi: float,
    gamma_phi: float,
    times,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact lossy exchange from |0_m 1_c>, solved on its single-excitation block.

    Two-level modes, RWA coupling g (m^dag c + c^dag m), collapses
    sqrt(kappa_d) c, sqrt(gamma_d) m, sqrt(kappa_phi) n_c, sqrt(gamma_phi) n_m;
    all rates angular. The state stays in span{|a> = |0_m 1_c>, |b> = |1_m 0_c>,
    |00>}, where x = (rho_aa, rho_bb, rho_ab, rho_ba) obeys the closed linear
    ODE dx/dt = gen @ x. Decay drains the populations; all four rates damp the
    coherence at half their sum. rho_00 = 1 - rho_aa - rho_bb, every other
    entry is 0, and the concurrence is 2 |rho_ab|.

    exp(t gen) is a scaled-and-squared Taylor series, evaluated for all times
    at once. Returns rho_aa, rho_bb and rho_ab, one entry per time.
    """
    half = 0.5 * (kappa_d + gamma_d + kappa_phi + gamma_phi)
    ig = 1j * g
    gen = np.array(
        [
            [-kappa_d, 0.0, ig, -ig],
            [0.0, -gamma_d, -ig, ig],
            [ig, -ig, -half, 0.0],
            [-ig, ig, 0.0, -half],
        ],
        dtype=complex,
    )
    t = np.asarray(times, dtype=float).reshape(-1)
    a = t[:, None, None] * gen
    norm = float(np.max(np.abs(t))) * float(np.max(np.sum(np.abs(gen), axis=0)))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    a = a / 2.0**squarings
    eye = np.eye(4, dtype=complex)
    prop = eye + a / 12.0
    for k in range(11, 0, -1):  # Horner form of the degree-12 Taylor polynomial
        prop = eye + (a / k) @ prop
    for _ in range(squarings):
        prop = prop @ prop
    x = prop[:, :, 0]  # x(0) = (1, 0, 0, 0)
    return x[:, 0].real, x[:, 1].real, x[:, 2]


def _single_excitation_lossless_residual() -> float:
    g = 2.0 * np.pi * 130e6
    t = np.linspace(0.0, 2.0 * np.pi / g, 257)
    aa, bb, ab = single_excitation_block(g, 0.0, 0.0, 0.0, 0.0, t)
    return float(max(
        np.max(np.abs(aa - np.cos(g * t) ** 2)),
        np.max(np.abs(bb - np.sin(g * t) ** 2)),
        np.max(np.abs(ab - 0.5j * np.sin(2.0 * g * t))),
    ))


# Acceptance criteria 01 and 02 rest on this oracle: its lossless limit must
# be the exact Rabi exchange cos^2(gt), sin^2(gt), rho_ab = i sin(2gt)/2.
_LOSSLESS_RESIDUAL = _single_excitation_lossless_residual()
if not _LOSSLESS_RESIDUAL <= 1e-12:
    raise RuntimeError(
        "single_excitation_block misses the lossless Rabi exchange by "
        f"{_LOSSLESS_RESIDUAL:.2e} (> 1e-12)"
    )


def exact_chain_state(
    link: np.ndarray, q_swap: float, hops: int, herald: str = "psi_minus"
) -> DensityMatrix:
    """Density-matrix pipeline: ``hops`` copies of a two-qubit link fused by ``hops - 1`` swaps."""
    left = DensityMatrix(qubit_space("end", "r0"), link)
    for j in range(1, hops):
        joint = qcore.tensor_product(left, DensityMatrix(qubit_space(f"a{j}", f"b{j}"), link))
        result = swap.bsm(joint, left.space.labels[1], f"a{j}", outcome=herald)
        left = swap.depolarize(result.post_state, q_swap)
    return left


def checked_bsm_reference(
    rho: DensityMatrix, qubit_a: str, qubit_b: str, outcome: str
) -> tuple[float, DensityMatrix]:
    """``swap.bsm``'s branch with every intermediate built as a checked state.

    Not an independent oracle: the same projector, probability, projection
    and correction as ``bsm``, in the same order, but the projected register
    is a ``DensityMatrix`` reduced by the public ``qcore.partial_trace``. So
    ``bsm`` must match it bit for bit.
    """
    chosen = swap.bell_outcome(outcome)
    proj = qcore.embed(chosen.projector, rho.space, (qubit_a, qubit_b))
    prob = float(np.real(np.trace(proj @ rho.matrix)))
    branch = DensityMatrix(rho.space, proj @ rho.matrix @ proj / prob)
    keep = [lbl for lbl in rho.space.labels if lbl not in (qubit_a, qubit_b)]
    survivors = qcore.partial_trace(branch, keep)
    corr = np.kron(qcore.ID2, chosen.correction)
    return prob, DensityMatrix(survivors.space, corr @ survivors.matrix @ corr.conj().T)


def bell_state_from_ket(kind: str, labels: tuple[str, str] = ("q0", "q1")) -> DensityMatrix:
    """``qcore.bell_state`` built through ``DensityMatrix.from_ket`` from the same ket.

    Not an independent oracle: the projector table must repeat ``from_ket``'s
    arithmetic, so ``bell_state`` must match this bit for bit.
    """
    return DensityMatrix.from_ket(qubit_space(*labels), qcore._BELL_KETS[kind])


def werner_state_from_ket(p: float, labels: tuple[str, str] = ("q0", "q1")) -> DensityMatrix:
    """``qcore.werner_state`` mixed from a checked ``from_ket`` singlet, in the same order.

    ``werner_state`` must match this bit for bit.
    """
    singlet = bell_state_from_ket("psi_minus", labels)
    m = p * singlet.matrix + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
    return DensityMatrix(singlet.space, m)


def fusion_inputs(seed: int):
    """The swap-fusion benchmark's inputs: 8 link purities and 7 heralds per operation."""
    rng = random.Random(f"swap-fusion/{seed}")
    while True:
        yield ([round(rng.uniform(0.9, 1.0), 6) for _ in range(8)],
               [rng.choice(qcore.BELL_LABELS) for _ in range(7)])


def fusion_op(purities, heralds, werner=qcore.werner_state, bell=qcore.bell_state):
    """One swap-fusion benchmark operation: 8 Werner links fused in 7 swaps, then scored.

    Returns the fused pair's matrix, its fidelity to the singlet and its
    concurrence. ``werner`` and ``bell`` build the links and the final singlet.
    """
    state = werner(purities[0], ("a0", "b0"))
    for i, herald in enumerate(heralds, start=1):
        link = werner(purities[i], (f"a{i}", f"b{i}"))
        joint = qcore.tensor_product(state, link)
        fused = swap.bsm(joint, f"b{i - 1}", f"a{i}", outcome=herald).post_state
        state = swap.depolarize(fused, 0.967)
    singlet = bell("psi_minus", state.space.labels)
    return state.matrix, qcore.fidelity(state, singlet), qcore.concurrence(state)
