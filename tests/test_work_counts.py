"""Deterministic work per operation: state checks, eigensolver calls and traced memory.

Wall time on a shared machine cannot resolve a change of one eigensolve in a
few milliseconds; these counts can. Each pinned tuple is (DensityMatrix
checks, ``eigvalsh``, ``eigh``, ``svd``) per operation. A change that removes
a check or a decomposition lowers them, and updates the pins on purpose. The
memory pins are ``tracemalloc`` peaks, which numpy's array allocations report
to, so they too are the same on every run of one input.
"""
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from magrep import dynamics, qcore, swap

_SOLVERS = ("eigvalsh", "eigh", "svd")


@pytest.fixture
def work(monkeypatch) -> Counter:
    counts = Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    check = qcore.DensityMatrix.__post_init__
    monkeypatch.setattr(qcore.DensityMatrix, "__post_init__", counting("checks", check))
    for name in _SOLVERS:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return counts


def _tally(counts: Counter) -> tuple[int, ...]:
    tally = tuple(counts[name] for name in ("checks", *_SOLVERS))
    counts.clear()
    return tally


# The node-scan benchmark's cases, with the record blocks of their pair runs:
# 80 records of 1.3, 4.1 and 10 KB at RWA 3/4/5 fill 1, 3 and 7 blocks of
# _CHECK_BLOCK_BYTES; about 65 records of 0.26 and 1.3 KB under the full
# Hamiltonian fill one. Checks: the initial state and final_state. eigvalsh:
# those two plus one per block. The fidelity is an overlap with the pure
# target, so no eigh and no svd.
RECORD_BLOCKS = {("rwa", 3): 1, ("rwa", 4): 3, ("rwa", 5): 7, ("full", 2): 1, ("full", 3): 1}


@pytest.mark.parametrize("hamiltonian, dim", list(RECORD_BLOCKS))
def test_generate_bell_pair_work(work, hamiltonian, dim):
    p = dynamics.LindbladParams(dim_c=dim, dim_m=dim)
    dynamics.generate_bell_pair(p, hamiltonian=hamiltonian)
    assert _tally(work) == (2, 2 + RECORD_BLOCKS[hamiltonian, dim], 0, 0)


def _traced_peak(call) -> int:
    """Bytes ``call()`` allocates at its peak beyond what it started with, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_record_checks_hold_one_block_of_temporaries():
    # 200 records of a 5x5 node, 2 MB. One batched pass over them held about
    # four stacks (8 MB); a block's temporaries are the adjoint, the
    # difference with its magnitudes and the Hermitian part, about three
    # blocks (0.4 MB). Bounded by four, plus the three returned margin arrays.
    n = 200
    states = np.array([np.eye(25, dtype=complex) / 25] * n)
    times = np.arange(n) * 1e-9
    peak = _traced_peak(lambda: dynamics._check_records(states, times))
    assert peak <= 4 * dynamics._CHECK_BLOCK_BYTES + 3 * 8 * n


# tracemalloc peak of one generate_bell_pair call, in bytes, at the default
# rates. At RWA 4/5 the 80-record stack (0.33/0.80 MB) and one block's checks
# dominate; at RWA 3 and full 3 it is the dense 81x81 step matrix and its
# powers. Repeated calls reproduce these to the byte; the 2 % tolerance covers
# Python-object noise, while one more block of checked records (10 % at RWA 5),
# another stack of records or another step matrix (16 % at 3x3) falls outside.
NODE_PEAK_BYTES = {("rwa", 3): 642_279, ("rwa", 4): 754_208, ("rwa", 5): 1_335_167,
                   ("full", 2): 77_515, ("full", 3): 642_327}


@pytest.mark.parametrize("hamiltonian, dim", list(NODE_PEAK_BYTES))
def test_generate_bell_pair_traced_peak(hamiltonian, dim):
    p = dynamics.LindbladParams(dim_c=dim, dim_m=dim)
    peak = _traced_peak(lambda: dynamics.generate_bell_pair(p, hamiltonian=hamiltonian))
    assert peak == pytest.approx(NODE_PEAK_BYTES[hamiltonian, dim], rel=0.02)


def _fusion_inputs(seed: int):
    """The swap-fusion benchmark's inputs: 8 link purities and 7 heralds per operation."""
    rng = random.Random(f"swap-fusion/{seed}")
    while True:
        yield ([round(rng.uniform(0.9, 1.0), 6) for _ in range(8)],
               [rng.choice(qcore.BELL_LABELS) for _ in range(7)])


# Checks: 8 links and the 9 singlets built for them and for the final
# fidelity, then per swap the joint register, bsm's projected register, its
# reduced and corrected states and the depolarized result (7 x 5). eigvalsh:
# one per check. eigh: fidelity's two factors and concurrence's one. svd: one
# each for fidelity and concurrence.
def test_fusion_op_work(work):
    inputs = _fusion_inputs(907)
    for _ in range(3):
        purities, heralds = next(inputs)
        state = qcore.werner_state(purities[0], ("a0", "b0"))
        for i, herald in enumerate(heralds, start=1):
            link = qcore.werner_state(purities[i], (f"a{i}", f"b{i}"))
            joint = qcore.tensor_product(state, link)
            fused = swap.bsm(joint, f"b{i - 1}", f"a{i}", outcome=herald).post_state
            state = swap.depolarize(fused, 0.967)
        singlet = qcore.bell_state("psi_minus", state.space.labels)
        qcore.fidelity(state, singlet)
        qcore.concurrence(state)
        assert _tally(work) == (52, 52, 3, 2)
