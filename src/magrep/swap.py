"""Beam-splitter interference, Bell-state measurement and entanglement swapping.

A measurement on two inner qubits of a four-qubit register projects them onto
one of the four Bell states; the heralded outcome determines a Pauli
correction that rotates the surviving outer pair back into the singlet. The
correction is always applied to the second surviving qubit (the downstream
side of the link).
"""
from __future__ import annotations

import math

import numpy as np

from .params import Value, check_probability, check_real
from .qcore import (
    BELL_LABELS,
    DensityMatrix,
    ID2,
    PAULI_X,
    PAULI_Z,
    _BELL_PROJECTORS,
    _QUARTER_IDENTITY,
    _readonly,
    _trace_out,
    embed,
)

# A heralded outcome below this probability is an empty branch and cannot be selected.
ZERO_BRANCH_TOL = 1e-12


# The survivors' feed-forward kron(I, C) for each Bell label, built once: C
# rotates the second survivor so every branch lands on the singlet.
_CORRECTIONS = {
    label: _readonly(np.kron(ID2, c))
    for label, c in (("psi_plus", PAULI_Z), ("psi_minus", ID2),
                     ("phi_plus", PAULI_Z @ PAULI_X), ("phi_minus", PAULI_X))
}


class SwapResult(Value, eq=False):
    """Outcome of one heralded swap: which Bell click (its label), how likely, what remains."""

    outcome: str
    probability: float
    post_state: DensityMatrix


def beam_splitter_unitary(beta: float, t: float) -> np.ndarray:
    """Two-mode mixing unitary for coupling rate ``beta`` acting for time ``t`` (either sign)."""
    check_real("beta", beta, None)
    check_real("t", t, None)
    angle = beta * t
    check_real("beta * t", angle, None)
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def swap_time(g_bs: float) -> float:
    """Evolution time for a full mode swap: pi / (2 g_bs)."""
    check_real("g_bs", g_bs, "> 0")
    return math.pi / (2.0 * g_bs)


def _require_four_qubits(rho: DensityMatrix, qubit_a: str, qubit_b: str) -> None:
    space = rho.space
    if len(space.subsystems) != 4 or any(d != 2 for d in space.dims):
        raise ValueError(f"need a register of exactly four qubits, got dims {space.dims}")
    if qubit_a == qubit_b:
        raise ValueError("measurement qubits must be distinct")
    space.index(qubit_a)
    space.index(qubit_b)


def bsm(rho: DensityMatrix, qubit_a: str, qubit_b: str, outcome: str) -> SwapResult:
    """Bell-state measurement on qubits (a, b) of a four-qubit state, heralding ``outcome``.

    ``outcome`` is a Bell label whose branch has probability >=
    ``ZERO_BRANCH_TOL``. Only that branch is evaluated. The two surviving
    qubits are renormalized, and the outcome's Pauli correction is applied to
    the second survivor so every branch lands on the same target pair. The
    branch passes between these steps as plain arrays; the one state built is
    the returned ``post_state``, and its construction checks it.
    """
    _require_four_qubits(rho, qubit_a, qubit_b)
    if outcome not in BELL_LABELS:
        raise ValueError(f"unknown outcome {outcome!r}; expected one of {BELL_LABELS}")
    proj = embed(_BELL_PROJECTORS[outcome], rho.space, (qubit_a, qubit_b))
    prob = float(np.real(np.trace(proj @ rho.matrix)))
    if prob < ZERO_BRANCH_TOL:
        raise ValueError(f"outcome {outcome} has probability {prob:.3e}; branch is empty")
    branch = proj @ rho.matrix @ proj / prob
    keep = [lbl for lbl in rho.space.labels if lbl not in (qubit_a, qubit_b)]
    survivors, reduced = _trace_out(branch, rho.space, keep)
    corr = _CORRECTIONS[outcome]
    fixed = corr @ reduced @ corr.conj().T
    return SwapResult(
        outcome=outcome,
        probability=prob,
        post_state=DensityMatrix(survivors, fixed),
    )


def node_swap_gate(rho: DensityMatrix, label_a: str, label_b: str) -> DensityMatrix:
    """Exchange the roles of two qubit subsystems (full SWAP conjugation)."""
    space = rho.space
    dims = space.dims
    for lbl in (label_a, label_b):
        if dims[space.index(lbl)] != 2:
            raise ValueError(f"subsystem {lbl!r} is not a qubit")
    swap4 = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    u = embed(swap4, space, (label_a, label_b))
    return DensityMatrix(space, u @ rho.matrix @ u.conj().T)


def depolarize(rho: DensityMatrix, q: float) -> DensityMatrix:
    """Two-qubit depolarizing channel with retention q: q rho + (1-q) I/4."""
    check_probability("q", q)
    if rho.space.dim != 4:
        raise ValueError(f"depolarize expects a two-qubit state, got dimension {rho.space.dim}")
    m = q * rho.matrix + (1.0 - q) * _QUARTER_IDENTITY
    return DensityMatrix(rho.space, m)


def heralded_link_probability(length_km: float, attenuation_length_km: float = 10.0) -> float:
    """Heralded success of a linear-optics Bell click over a lossy span.

    exp(-L/d)/2: the 1/2 is the intrinsic linear-optics analyzer ceiling, the
    exponential is two-photon survival over length L with attenuation length d.
    """
    check_real("length_km", length_km)
    check_real("attenuation_length_km", attenuation_length_km, "> 0")
    return math.exp(-length_km / attenuation_length_km) / 2.0
