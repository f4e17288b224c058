"""Reference results for every benchmark operation, computed with numpy only.

Nothing here imports magrep: the node model, the Werner fusion closure and
the link budget are rebuilt from their published formulas so that a change to
the program that alters its results shows up as a mismatch, not as a speed-up.

Each ``check_*`` function returns a list of mismatch messages; an empty list
means the operation's output is correct.

Tolerances (absolute):

* ``STATE_ATOL`` for populations and density-matrix entries. The program's
  fixed-step 4th-order integrator differs from the exact propagator by about
  1e-10 on these workloads, and CSV values carry 9 significant digits
  (rounding up to 5e-10); a 3rd-order step would be off by about 1e-8.
* ``ENTANGLEMENT_ATOL`` for concurrence and fidelity. Both go through square
  roots of near-zero eigenvalues, which turns 1e-16 roundoff into about 1e-8.
* ``LINK_RTOL`` (relative) for link-budget values, which are closed-form
  products printed with 9 significant digits.
"""
from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

STATE_ATOL = 2e-9
# Relative rounding of a value printed with 9 significant digits.
TIME_RTOL = 5e-9
ENTANGLEMENT_ATOL = 1e-6
LINK_RTOL = 1e-8
# Below this, products of many probabilities are subnormal and lose relative
# precision in either implementation.
LINK_ATOL = 1e-290

TWO_PI = 2.0 * math.pi

# Werner-track noise defaults documented for the chain model.
P_LINK = 0.94
Q_SWAP = 0.967
USABLE_FIDELITY = 0.7
_THRESHOLD_EPS = 1e-12

# Built-in scenarios as documented, in dB/km and km:
# alpha, span, eta_read, eta_conv (None: no conversion stage), eta_extra,
# eta_det, eta_col, p_bsa, m_mux.
SCENARIOS = {
    "chip-a": (20.0, 0.01, 0.62, None, 0.98, 0.98, 0.95, 0.50, 1),
    "chip-b": (20.0, 0.01, 0.62, None, 0.98, 0.98, 0.95, 0.50, 8),
    "chip-c": (20.0, 0.01, 0.62, None, 0.98, 0.98, 0.95, 0.75, 30),
    "metro-a": (0.35, 10.0, 0.62, 0.005, 0.90, 0.80, 0.95, 0.50, 1),
    "metro-b": (0.20, 10.0, 0.62, 0.50, 0.95, 0.98, 0.95, 0.50, 8),
    "metro-c": (0.16, 10.0, 0.62, 0.80, 0.95, 0.98, 0.95, 0.75, 30),
}


# ---------------------------------------------------------------- node model

def _ladder(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim, dtype=float)), k=1).astype(complex)


def node_hamiltonian_and_collapses(node: dict, kind: str) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hamiltonian and collapse operators on the (magnon, cavity) product basis.

    ``node`` holds angular rates (rad/s) ``omega_c, omega_m, g_mc, kappa_d,
    gamma_d, kappa_phi, gamma_phi`` and truncations ``dim_c, dim_m``; the
    basis index is ``n_m * dim_c + n_c``.
    """
    dim_c, dim_m = node["dim_c"], node["dim_m"]
    c = np.kron(np.eye(dim_m), _ladder(dim_c))
    m = np.kron(_ladder(dim_m), np.eye(dim_c))
    cd, md = c.conj().T, m.conj().T
    if kind == "rwa":
        h = node["g_mc"] * (md @ c + cd @ m)
    else:
        h = (node["omega_c"] * cd @ c + node["omega_m"] * md @ m
             + node["g_mc"] * (m + md) @ (c + cd))
    collapses = [
        math.sqrt(node["kappa_d"]) * c,
        math.sqrt(node["gamma_d"]) * m,
        math.sqrt(node["kappa_phi"]) * cd @ c,
        math.sqrt(node["gamma_phi"]) * md @ m,
    ]
    return h, collapses


def liouvillian(h: np.ndarray, collapses: list[np.ndarray]) -> np.ndarray:
    """Row-major Kronecker form of the Lindblad generator.

    ``L = -i(H⊗I - I⊗Hᵀ) + Σ C⊗C* - ½(C†C⊗I + I⊗(C†C)ᵀ)``, using
    ``vec(A ρ B) = (A ⊗ Bᵀ) vec(ρ)`` for row-major ``vec``. Since ``H`` and
    ``C†C`` are Hermitian (their transposes are their conjugates) it is built
    as ``G⊗I + I⊗G* + Σ C⊗C*`` with ``G = -iH - ½ Σ C†C``.
    """
    eye = np.eye(h.shape[0], dtype=complex)
    g = -1j * h - 0.5 * sum(op.conj().T @ op for op in collapses)
    gen = np.kron(g, eye) + np.kron(eye, g.conj())
    for op in collapses:
        gen += np.kron(op, op.conj())
    return gen


def expm(a: np.ndarray) -> np.ndarray:
    """exp of a small dense matrix, or of each matrix in a stack ``(..., m, m)``.

    Degree-18 Taylor polynomial after scaling to ``‖a‖₁ <= 1/2`` (truncation
    error below 1e-22), then repeated squaring.
    """
    norm = float(np.abs(a).sum(axis=-2).max())
    squarings = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.0 else 0
    a = a / 2.0**squarings
    term = out = np.broadcast_to(np.eye(a.shape[-1], dtype=complex), a.shape)
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def invariant_subspace(gen: np.ndarray, vec: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Smallest ``gen``-invariant subspace holding ``vec``, by Arnoldi.

    Returns ``(‖vec‖, Q, H)`` with orthonormal columns ``Q`` and
    ``gen @ Q = Q @ H``, so that ``exp(t·gen) @ vec = ‖vec‖ Q exp(t·H) e₁``
    exactly. The iteration stops when the next Krylov direction vanishes to
    roundoff (1e-12 of ``‖gen‖₁``) or the whole space is spanned.
    """
    n = vec.size
    floor = 1e-12 * float(np.abs(gen).sum(axis=0).max())
    beta = float(np.linalg.norm(vec))
    cols = [vec / beta]
    h = np.zeros((n + 1, n), dtype=complex)
    while True:
        j = len(cols) - 1
        q = np.column_stack(cols)
        w = gen @ cols[j]
        for _ in range(2):  # Gram-Schmidt twice keeps Q orthonormal to roundoff
            c = q.conj().T @ w
            w = w - q @ c
            h[: j + 1, j] += c
        h[j + 1, j] = np.linalg.norm(w)
        if j + 1 == n or abs(h[j + 1, j]) <= floor:
            return beta, q, h[: j + 1, : j + 1]
        cols.append(w / h[j + 1, j])


def node_states(node: dict, kind: str, times_s) -> tuple[np.ndarray, np.ndarray]:
    """Exact states and their time derivatives at ``times_s``, stacked.

    The evolution starts from |0_m 1_c> at t = 0.
    """
    h, collapses = node_hamiltonian_and_collapses(node, kind)
    d = h.shape[0]
    rho0 = np.zeros((d, d), dtype=complex)
    rho0[1, 1] = 1.0
    beta, q, small = invariant_subspace(liouvillian(h, collapses), rho0.reshape(-1))
    times = np.asarray(times_s, dtype=float)
    coords = beta * expm(times[:, None, None] * small)[:, :, 0]
    return (coords @ q.T).reshape(-1, d, d), (coords @ small.T @ q.T).reshape(-1, d, d)


def target_pair_ket(node: dict) -> np.ndarray:
    """(|0_m 1_c> - i |1_m 0_c>)/sqrt(2) on the node basis."""
    ket = np.zeros(node["dim_c"] * node["dim_m"], dtype=complex)
    ket[1] = 1.0 / math.sqrt(2.0)
    ket[node["dim_c"]] = -1j / math.sqrt(2.0)
    return ket


def pair_generation_time(node: dict) -> float:
    return math.pi / (4.0 * node["g_mc"])


def wootters_concurrence(rho: np.ndarray) -> np.ndarray:
    """max(0, l1 - l2 - l3 - l4) over the square roots of eig(ρ ρ̃), descending.

    ``rho`` is one two-qubit state or a stack of them.
    """
    yy = np.fliplr(np.diag([-1.0, 1.0, 1.0, -1.0])).astype(complex)
    ev = np.linalg.eigvals(rho @ yy @ rho.conj() @ yy).real
    lam = np.sqrt(np.clip(np.sort(ev, axis=-1)[..., ::-1], 0.0, None))
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])


def pure_fidelity(rho: np.ndarray, ket: np.ndarray) -> float:
    return float(np.real(ket.conj() @ rho @ ket))


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if not rows:
        raise ValueError(f"{path.name} is empty")
    return rows[0], rows[1:]


def _check_svg(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


def _close(name: str, got: float, want: float, atol: float) -> list[str]:
    if abs(got - want) <= atol:
        return []
    return [f"{name}: got {got!r}, want {want!r} (|diff| {abs(got - want):.3e} > {atol:g})"]


def _close_rows(name: str, values: np.ndarray, col: int, want: np.ndarray,
                atol) -> list[str]:
    """Mismatches of one CSV column (rows keyed by the time in column 0)."""
    bad = np.flatnonzero(~(np.abs(values[:, col] - want) <= atol))
    return [f"{name} at {values[i, 0]} ns: got {values[i, col]!r}, want {want[i]!r}"
            for i in bad[:3]]


def check_pair(node: dict, out_dir: Path) -> list[str]:
    """``magrep pair --format csv,svg`` outputs against the exact RWA solution."""
    errors: list[str] = []
    try:
        header, rows = _read_csv(out_dir / "pair_trace.csv")
        dm_header, dm_rows = _read_csv(out_dir / "pair_dm.csv")
        values = np.array(rows, dtype=float)
    except (OSError, ValueError) as exc:
        return [f"pair outputs unreadable: {exc}"]
    if header != ["t_ns", "concurrence", "pop_00", "pop_01", "pop_10", "pop_11"]:
        return [f"pair_trace.csv header {header}"]
    if values.ndim != 2 or values.shape[0] < 2 or values.shape[1] != 6:
        return [f"pair_trace.csv has shape {values.shape}"]
    t_s = values[:, 0] * 1e-9
    t_end = 3.0 * pair_generation_time(node)
    if t_s[0] != 0.0 or not np.all(np.diff(t_s) > 0):
        errors.append("pair_trace.csv times do not start at 0 and increase")
    if not math.isclose(t_s[-1], t_end, rel_tol=2 * TIME_RTOL):
        errors.append(f"pair_trace.csv ends at {t_s[-1]!r} s, want {t_end!r} s")
    if errors:
        return errors
    rhos, rates = node_states(node, "rwa", t_s)
    errors += _close_rows("concurrence", values, 1, wootters_concurrence(rhos),
                          ENTANGLEMENT_ATOL)
    pops = np.diagonal(rhos, axis1=1, axis2=2).real
    # The CSV time itself carries 9 significant digits: allow for how far the
    # population moves within that rounding.
    slack = np.abs(np.diagonal(rates, axis1=1, axis2=2).real) * (TIME_RTOL * t_s)[:, None]
    for j, label in enumerate(("00", "01", "10", "11")):
        errors += _close_rows(f"pop_{label}", values, 2 + j, pops[:, j],
                              STATE_ATOL + slack[:, j])

    [rho], _ = node_states(node, "rwa", [pair_generation_time(node)])
    labels = ["00", "01", "10", "11"]
    want_cells = [(labels[i], labels[j], rho[i, j]) for i in range(4) for j in range(4)]
    if dm_header != ["row_label", "col_label", "re", "im", "abs"] or len(dm_rows) != 16:
        errors.append(f"pair_dm.csv header {dm_header} with {len(dm_rows)} rows")
    else:
        for got, (r, c, z) in zip(dm_rows, want_cells):
            if got[:2] != [r, c] or len(got) != 5:
                errors.append(f"pair_dm.csv row {got}, want cell {r},{c}")
                continue
            for name, g, w in zip(("re", "im", "abs"), got[2:], (z.real, z.imag, abs(z))):
                errors += _close(f"pair_dm {r},{c} {name}", float(g), w, STATE_ATOL)
    return errors + _check_svg(out_dir / "pair_trace.svg")


def check_node(node: dict, kind: str, state: np.ndarray, fid: float) -> list[str]:
    """One ``generate_bell_pair`` result against the exact quarter-period state."""
    [rho], _ = node_states(node, kind, [pair_generation_time(node)])
    where = f"{kind} {node['dim_c']}x{node['dim_m']}"
    if state.shape != rho.shape:
        return [f"{where}: state shape {state.shape}, want {rho.shape}"]
    errors = []
    dev = float(np.abs(state - rho).max())
    if not dev <= STATE_ATOL:
        errors.append(f"{where}: state deviates by {dev:.3e} > {STATE_ATOL:g}")
    errors += _close(f"{where} fidelity", fid, pure_fidelity(rho, target_pair_ket(node)),
                     ENTANGLEMENT_ATOL)
    return errors


# ------------------------------------------------------------- Werner fusion

def check_fusion(purities, q: float, state: np.ndarray, fid: float, conc: float) -> list[str]:
    """Exact fusion of Werner links against the closed Werner form.

    After ``h`` links and ``h - 1`` corrected swaps with depolarizing
    retention ``q`` the state is Werner with ``p = Πp_i · q^(h-1)``, whose
    singlet fidelity is ``(3p + 1)/4`` and concurrence ``max(0, (3p - 1)/2)``.
    """
    p = math.prod(purities) * q ** (len(purities) - 1)
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    want = p * np.outer(singlet, singlet) + (1.0 - p) * np.eye(4) / 4.0
    errors = []
    dev = float(np.abs(np.asarray(state) - want).max())
    if not dev <= STATE_ATOL:
        errors.append(f"fused state deviates from Werner p={p!r} by {dev:.3e}")
    errors += _close("fused fidelity", fid, (3.0 * p + 1.0) / 4.0, ENTANGLEMENT_ATOL)
    errors += _close("fused concurrence", conc, max(0.0, (3.0 * p - 1.0) / 2.0),
                     ENTANGLEMENT_ATOL)
    return errors


# --------------------------------------------------------------- link budget

def click_probability(sc: tuple) -> float:
    alpha, span, read, conv, extra, det, col, p_bsa, _ = sc
    eta_link = 10.0 ** (-alpha * span / 10.0) * (1.0 if conv is None else conv**2) * extra
    return p_bsa * det**2 * col**2 * eta_link**2 * read


def chain_rows(sc: tuple, hops: int) -> tuple[float, list[tuple]]:
    """(p_click, rows) with rows ``(hop, fidelity, concurrence, p_hop, p_cumulative, usable)``."""
    p_click = click_probability(sc)
    m_mux = sc[8]
    p_hop = p_click if m_mux == 1 else 1.0 - (1.0 - p_click) ** m_mux
    rows, cumulative = [], 1.0
    for h in range(1, hops + 1):
        p_eff = P_LINK**h * Q_SWAP ** (h - 1)
        fid = (3.0 * p_eff + 1.0) / 4.0
        cumulative *= p_hop
        rows.append((h, fid, max(0.0, (3.0 * p_eff - 1.0) / 2.0), p_hop, cumulative,
                     fid >= USABLE_FIDELITY - _THRESHOLD_EPS))
    return p_click, rows


def sweep_variant(sc: tuple, hops: int, axis: str, value: float) -> tuple[tuple, int]:
    alpha, span, read, conv, extra, det, col, p_bsa, m_mux = sc
    if axis == "mux":
        return (alpha, span, read, conv, extra, det, col, p_bsa, int(value)), hops
    if axis == "conv":
        return (alpha, span, read, value, extra, det, col, p_bsa, m_mux), hops
    if axis == "hops":
        return sc, int(value)
    return (alpha, value, read, conv, extra, det, col, p_bsa, m_mux), hops


def _compare_row(where: str, got: list[str], want: tuple) -> list[str]:
    if len(got) != len(want):
        return [f"{where}: {len(got)} fields, want {len(want)}"]
    errors = []
    for g, w in zip(got, want):
        if isinstance(w, bool):
            ok = g == ("true" if w else "false")
        elif isinstance(w, str):
            ok = g == w
        else:
            ok = math.isclose(float(g), w, rel_tol=LINK_RTOL, abs_tol=LINK_ATOL)
        if not ok:
            errors.append(f"{where}: got {got}, want {list(want)}")
            break
    return errors


def check_chain(scenario: str, hops: int, out_dir: Path) -> list[str]:
    """``magrep chain --format csv,svg`` outputs against the closed-form budget."""
    try:
        header, rows = _read_csv(out_dir / "chain.csv")
    except (OSError, ValueError) as exc:
        return [f"chain outputs unreadable: {exc}"]
    if header != ["hop", "fidelity", "concurrence", "p_hop", "p_cumulative", "usable"]:
        return [f"chain.csv header {header}"]
    _, want = chain_rows(SCENARIOS[scenario], hops)
    if len(rows) != len(want):
        return [f"chain.csv has {len(rows)} rows, want {len(want)}"]
    errors = []
    for got, w in zip(rows, want):
        errors += _compare_row(f"chain hop {w[0]}", got, w)
    return errors + _check_svg(out_dir / "chain.svg")


def check_sweep(scenario: str, hops: int, axis: str, values: list[float],
                out_dir: Path) -> list[str]:
    """``magrep sweep`` output against the closed-form budget, ordered by (value, hop)."""
    try:
        header, rows = _read_csv(out_dir / "sweep.csv")
    except (OSError, ValueError) as exc:
        return [f"sweep outputs unreadable: {exc}"]
    if header != ["axis", "value", "hop", "fidelity", "concurrence", "p_click",
                  "p_hop", "p_cumulative", "usable"]:
        return [f"sweep.csv header {header}"]
    want = []
    for value in sorted(values):
        variant, n = sweep_variant(SCENARIOS[scenario], hops, axis, value)
        p_click, chain = chain_rows(variant, n)
        for h, fid, conc, p_hop, p_cum, usable in chain:
            want.append((axis, value, h, fid, conc, p_click, p_hop, p_cum, usable))
    if len(rows) != len(want):
        return [f"sweep.csv has {len(rows)} rows, want {len(want)}"]
    errors = []
    for got, w in zip(rows, want):
        errors += _compare_row(f"sweep {axis}={w[1]} hop {w[2]}", got, w)
    return errors
