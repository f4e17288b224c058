"""Deterministic work per operation: state checks, eigensolver calls and traced memory.

Wall time on a shared machine cannot resolve a change of one eigensolve in a
few milliseconds; these counts can. Each pinned tuple is (DensityMatrix
checks, ``eigvalsh``, ``eigh``, ``svd``, ``np.kron``) per operation. A change
that removes a check, a decomposition or a Kronecker product lowers them, and
updates the pins on purpose. ``HilbertSpec`` constructions are counted too,
outside the tuple. The memory pins are ``tracemalloc`` peaks, which numpy's
array allocations report to, so they too repeat on every run of one input
(the fusion op's, only when measured cold; see there).
"""
import gc
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from magrep import dynamics, qcore
from helpers import fusion_inputs, fusion_op

_SOLVERS = ("eigvalsh", "eigh", "svd")
_COUNTED = ("checks", *_SOLVERS, "kron")


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
    spec = qcore.HilbertSpec.__post_init__
    monkeypatch.setattr(qcore.HilbertSpec, "__post_init__", counting("specs", spec))
    for name in _SOLVERS:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np, "kron", counting("kron", np.kron))
    return counts


def _tally(counts: Counter) -> tuple[int, ...]:
    tally = tuple(counts[name] for name in _COUNTED)
    counts.clear()
    return tally


# The node-scan benchmark's cases, with the record blocks of their pair runs:
# 80 records of 1.3, 4.1 and 10 KB at RWA 3/4/5 fill 1, 3 and 7 blocks of
# _CHECK_BLOCK_BYTES; about 65 records of 0.26 and 1.3 KB under the full
# Hamiltonian fill one. Checks: the initial state and final_state. eigvalsh:
# those two plus one per block. The fidelity is an overlap with the pure
# target, so no eigh and no svd. np.kron: the two ladder operators, built once
# for the Hamiltonian and once for the collapse operators (4); the dense path
# adds the Liouvillian's two terms and one per collapse operator (6), while
# RWA 4 and 5 propagate matrix-free and build no Liouvillian.
RECORD_BLOCKS = {("rwa", 3): 1, ("rwa", 4): 3, ("rwa", 5): 7, ("full", 2): 1, ("full", 3): 1}
KRON_CALLS = {("rwa", 3): 10, ("rwa", 4): 4, ("rwa", 5): 4, ("full", 2): 10, ("full", 3): 10}


@pytest.mark.parametrize("hamiltonian, dim", list(RECORD_BLOCKS))
def test_generate_bell_pair_work(work, hamiltonian, dim):
    p = dynamics.LindbladParams(dim_c=dim, dim_m=dim)
    dynamics.generate_bell_pair(p, hamiltonian=hamiltonian)
    assert _tally(work) == (2, 2 + RECORD_BLOCKS[hamiltonian, dim], 0, 0, KRON_CALLS[hamiltonian, dim])


def _traced_peak(call, cold: bool = False) -> int:
    """Bytes ``call()`` allocates at its peak beyond what it started with, after a warm-up call.

    ``cold`` empties the interpreter's free lists (``gc.collect``) after the
    warm-up and keeps the collector off during the measured call.
    """
    call()
    if cold:
        gc.collect()
        gc.disable()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
        if cold:
            gc.enable()


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


# Checks: 8 links and the final singlet for the fidelity, then per swap the
# joint register, bsm's corrected state and the depolarized result (7 x 3);
# the links mix the singlet projector built once at import, and bsm's
# projected register and its reduced state are plain arrays. eigvalsh: one
# per check. eigh: one for fidelity's two factors, stacked, and one for
# concurrence's. svd: one each for fidelity and concurrence. np.kron: per swap
# the tensor_product and the embedded projector (7 x 2); each correction is
# built once, at import.
def test_fusion_op_work(work):
    inputs = fusion_inputs(907)
    for _ in range(3):
        fusion_op(*next(inputs))
        assert _tally(work) == (30, 30, 2, 2, 14)


# A fusion op's 23 register specs come from 22 subsystem tuples, the same in
# every op; qcore builds each tuple's spec once, so a warm op builds none.
def test_warm_fusion_op_builds_no_space(work):
    inputs = fusion_inputs(907)
    fusion_op(*next(inputs))
    work.clear()
    for _ in range(3):
        fusion_op(*next(inputs))
    assert work["specs"] == 0


# tracemalloc peak of one fusion op (the first seed-907 input), in bytes. Its
# arrays are 4 KB registers, so Python objects are a large share of it, and
# how many of them the interpreter's free lists serve depends on what ran
# before: a warm peak read 6 KB less inside the full suite than alone. So
# each call is measured cold, and the pin is the largest of seven calls; in
# 18 fresh processes, 12 alone and 6 after the rest of the suite, that read
# 43,902-44,452 B. Register specs are shared (qcore's bounded cache), so
# none is built at the peak. One more 16x16 register held at the peak
# (4,096 B, 9.3 % of the pin) falls outside 2 %.
FUSION_PEAK_BYTES = 44_200


def test_fusion_op_traced_peak():
    inputs = next(fusion_inputs(907))
    peak = max(_traced_peak(lambda: fusion_op(*inputs), cold=True) for _ in range(7))
    assert peak == pytest.approx(FUSION_PEAK_BYTES, rel=0.02)
