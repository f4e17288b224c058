"""Dense complex linear algebra and two-qubit state primitives.

Everything is built on plain ``numpy`` complex arrays. Density matrices
additionally carry a labeled tensor-product structure (:class:`HilbertSpec`)
so multi-node protocols can address subsystems by name instead of by index.
All Hilbert spaces in this package are small: at most 16 for the swap
registers and (dim_c * dim_m) for a node, 25 at a 5x5 truncation. So the
storage is unapologetically dense.
"""
from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .params import HERMITIAN_TOL, PSD_TOL, TRACE_DRIFT_LIMIT, Value, check_count, check_probability


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


ID2 = _readonly(np.eye(2, dtype=complex))
PAULI_X = _readonly(np.array([[0, 1], [1, 0]], dtype=complex))
PAULI_Y = _readonly(np.array([[0, -1j], [1j, 0]], dtype=complex))
PAULI_Z = _readonly(np.array([[1, 0], [0, -1]], dtype=complex))
_YY = _readonly(np.kron(PAULI_Y, PAULI_Y))

BELL_LABELS = ("psi_plus", "psi_minus", "phi_plus", "phi_minus")

_SQRT_HALF = 1.0 / math.sqrt(2.0)
_BELL_KETS = {
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) * _SQRT_HALF,
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) * _SQRT_HALF,
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) * _SQRT_HALF,
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) * _SQRT_HALF,
}


class HilbertSpec(Value):
    """Ordered, labeled tensor-product decomposition of a Hilbert space.

    ``subsystems`` is a sequence of ``(label, dimension)`` pairs; labels must
    be unique and every dimension must be an integer (not a bool) of at least 2.
    The total ``dim`` is computed once, at construction, with ``math.prod``;
    ``labels`` and ``dims`` are read from ``subsystems``. All three are
    read-only and not fields: a spec compares, hashes, prints and is replaced
    by its ``subsystems`` alone.
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subs = tuple((str(lbl), d) for lbl, d in self.subsystems)
        if not subs:
            raise ValueError("HilbertSpec needs at least one subsystem")
        labels = [lbl for lbl, _ in subs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate subsystem labels: {labels}")
        for lbl, d in subs:
            check_count(f"subsystem {lbl!r} dimension", d, 2)
        subs = tuple((lbl, int(d)) for lbl, d in subs)
        self.__dict__.update(subsystems=subs, dim=math.prod(d for _, d in subs))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.subsystems)

    def index(self, label: str) -> int:
        """Position of a labeled subsystem; unknown labels are an error."""
        for i, (lbl, _) in enumerate(self.subsystems):
            if lbl == label:
                return i
        raise ValueError(f"unknown subsystem label {label!r}; have {self.labels}")


def qubit_space(*labels: str) -> HilbertSpec:
    """Spec for a register of two-level subsystems with the given labels."""
    return HilbertSpec(tuple((lbl, 2) for lbl in labels))


def basis_ket(space: HilbertSpec, occupations: Sequence[int]) -> np.ndarray:
    """Product basis vector |n_0 n_1 ...> for the given occupation numbers."""
    dims = space.dims
    if len(occupations) != len(dims):
        raise ValueError("one occupation number per subsystem required")
    for n, d in zip(occupations, dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    v = np.zeros(space.dim, dtype=complex)
    v[int(np.ravel_multi_index(tuple(occupations), dims))] = 1.0
    return v


class DensityMatrix(Value, eq=False):
    """Validated trace-one positive-semidefinite operator on a labeled space.

    Construction checks squareness, Hermiticity (1e-9), unit trace (1e-6) and
    positivity (eigenvalues >= -1e-9, ``params.PSD_TOL``, the one floor of
    every checked state); a NaN or infinite entry fails the Hermiticity
    check. Instances are immutable; the stored array is a read-only copy, so
    values can safely be shared between threads.
    """

    space: HilbertSpec
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        d = self.space.dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} does not match space dimension {d}")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if not herm <= HERMITIAN_TOL:
            raise ValueError(f"matrix not Hermitian: max deviation {herm:.3e}")
        tr = m.trace()
        if not abs(tr - 1.0) <= TRACE_DRIFT_LIMIT:
            raise ValueError(f"trace {tr} deviates from 1 by more than {TRACE_DRIFT_LIMIT}")
        min_eig = float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])
        if not min_eig >= -PSD_TOL:
            raise ValueError(f"matrix not positive semidefinite: min eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", _readonly(m))

    @classmethod
    def from_ket(cls, space: HilbertSpec, amplitudes: Sequence[complex]) -> "DensityMatrix":
        """Pure-state projector |psi><psi| from a (normalized) state vector."""
        v = np.asarray(amplitudes, dtype=complex)
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("zero state vector")
        v = v / norm
        return cls(space, np.outer(v, v.conj()))


# |B><B| for each Bell label, built once by from_ket; the one source of Bell projectors.
_BELL_PROJECTORS = {
    kind: DensityMatrix.from_ket(qubit_space("q0", "q1"), ket).matrix
    for kind, ket in _BELL_KETS.items()
}
# I/4, the two-qubit maximally mixed state.
_QUARTER_IDENTITY = _readonly(np.eye(4, dtype=complex) / 4.0)


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Joint state of two independent registers; labels must not collide."""
    clash = set(a.space.labels) & set(b.space.labels)
    if clash:
        raise ValueError(f"label collision in tensor product: {sorted(clash)}")
    space = HilbertSpec(a.space.subsystems + b.space.subsystems)
    return DensityMatrix(space, np.kron(a.matrix, b.matrix))


def _trace_out(
    matrix: np.ndarray, space: HilbertSpec, keep: Iterable[str]
) -> tuple[HilbertSpec, np.ndarray]:
    """Kept space and reduced array of ``matrix`` on ``space``, unchecked.

    The kept subsystems stay in their original order. Duplicate, empty or
    unknown ``keep`` labels are a ``ValueError``.
    """
    keep = list(keep)
    if len(set(keep)) != len(keep):
        raise ValueError(f"duplicate labels in keep list: {keep}")
    if not keep:
        raise ValueError("must keep at least one subsystem")
    keep_pos = sorted(space.index(lbl) for lbl in keep)
    dims = space.dims
    n = len(dims)
    drop = [i for i in range(n) if i not in keep_pos]
    t = matrix.reshape(dims + dims)
    k = n
    for ax in sorted(drop, reverse=True):
        t = np.trace(t, axis1=ax, axis2=ax + k)
        k -= 1
    kept = HilbertSpec(tuple(space.subsystems[i] for i in keep_pos))
    return kept, t.reshape(kept.dim, kept.dim)


def partial_trace(rho: DensityMatrix, keep: Iterable[str]) -> DensityMatrix:
    """Reduced state on the kept subsystems, in their original order, as a checked state."""
    return DensityMatrix(*_trace_out(rho.matrix, rho.space, keep))


def embed(op: np.ndarray, space: HilbertSpec, labels: Sequence[str]) -> np.ndarray:
    """Lift an operator array acting on the listed subsystems to the full space.

    ``op`` acts on the tensor product of the named subsystems in the order
    given; identity is applied everywhere else.
    """
    dims = space.dims
    n = len(dims)
    pos = [space.index(lbl) for lbl in labels]
    if len(set(pos)) != len(pos):
        raise ValueError(f"duplicate labels in embed: {list(labels)}")
    d_sel = math.prod(dims[i] for i in pos)
    if op.shape != (d_sel, d_sel):
        raise ValueError(f"operator shape {op.shape} does not match selected dimension {d_sel}")
    rest = [i for i in range(n) if i not in pos]
    d_rest = math.prod(dims[i] for i in rest)
    big = np.kron(op, np.eye(d_rest, dtype=complex))
    perm = pos + rest
    pdims = [dims[i] for i in perm]
    inv = [perm.index(j) for j in range(n)]
    t = big.reshape(pdims + pdims)
    t = t.transpose(inv + [n + i for i in inv])
    return t.reshape(space.dim, space.dim)


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """Factor ``phi`` with ``phi @ phi^dagger == m``, for one Hermitian PSD matrix or a stack.

    ``phi = V diag(sqrt(w))`` from one eigendecomposition, eigenvalues
    ascending. The Hermiticity check (1e-9) is written so that NaN fails it;
    eigenvalues below -1e-9 are rejected and smaller negatives clamped to zero.
    """
    dev = float(np.max(np.abs(m - m.conj().swapaxes(-1, -2))))
    if not dev <= HERMITIAN_TOL:
        raise ValueError(f"matrix not Hermitian: max deviation {dev:.3e}")
    evals, vecs = np.linalg.eigh(m)
    low = evals[..., 0].min()
    if not low >= -PSD_TOL:
        raise ValueError(f"matrix not positive semidefinite: min eigenvalue {low:.3e}")
    return vecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :]


def _pair_space(labels: Sequence[str]) -> HilbertSpec:
    labels = tuple(labels)
    if len(labels) != 2:
        raise ValueError(f"a two-qubit state needs exactly two labels, got {labels!r}")
    return qubit_space(*labels)


def bell_state(kind: str, labels: tuple[str, str] = ("q0", "q1")) -> DensityMatrix:
    """One of the four maximally entangled two-qubit states.

    ``psi_minus`` is the singlet (|01> - |10>)/sqrt(2); the other kinds follow
    the usual sign conventions. The four projectors are built once, at import;
    the only check is the construction of the returned state. ``labels`` must
    be exactly two labels.
    """
    if kind not in _BELL_PROJECTORS:
        raise ValueError(f"unknown Bell state {kind!r}; expected one of {BELL_LABELS}")
    return DensityMatrix(_pair_space(labels), _BELL_PROJECTORS[kind])


def werner_state(p: float, labels: tuple[str, str] = ("q0", "q1")) -> DensityMatrix:
    """Singlet mixed with white noise: p |psi-><psi-| + (1-p) I/4.

    The singlet is the projector built once at import, not a state of its
    own; the only check is the construction of the returned state. ``labels``
    must be exactly two labels.
    """
    check_probability("p", p)
    m = p * _BELL_PROJECTORS["psi_minus"] + (1.0 - p) * _QUARTER_IDENTITY
    return DensityMatrix(_pair_space(labels), m)


def concurrences(rhos) -> np.ndarray:
    """Two-qubit concurrence of each state in an ``(n, 4, 4)`` stack, each in [0, 1].

    Wootters' lambda_i are the singular values of ``phi^T (Y x Y) phi`` for the
    factor ``rho = phi phi^dagger``, so each state costs one Hermitian
    eigensolve and one 4x4 SVD. Every state must be Hermitian (1e-9) and
    positive semidefinite (eigenvalues >= -1e-9); negatives inside that window
    are clamped to zero.
    """
    m = np.asarray(rhos, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValueError(f"concurrence requires two-qubit (4x4) states, got {m.shape[1:]}")
    phi = _psd_factor(m)
    lam = np.linalg.svd(phi.swapaxes(1, 2) @ _YY @ phi, compute_uv=False)
    return np.clip(lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3], 0.0, 1.0)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence, 0 (separable) to 1 (maximally entangled)."""
    return float(concurrences(rho.matrix[None])[0])


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 in [0, 1].

    Evaluated as the squared trace norm of ``phi_rho^dagger phi_sigma`` for the
    factors ``rho = phi_rho phi_rho^dagger`` (likewise sigma), which has the
    singular values of sqrt(rho) sqrt(sigma) but needs no matrix square root;
    the form is also symmetric in its arguments.
    """
    a, b = rho.matrix, sigma.matrix
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    s = np.linalg.svd(_psd_factor(a).conj().T @ _psd_factor(b), compute_uv=False)
    return min(1.0, max(0.0, float(s.sum() ** 2)))
