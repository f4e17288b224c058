"""Deterministic work per operation: state checks and eigensolver calls.

Wall time on a shared machine cannot resolve a change of one eigensolve in a
few milliseconds; these counts can. Each pinned tuple is (DensityMatrix
checks, ``eigvalsh``, ``eigh``, ``svd``) per operation. A change that removes
a check or a decomposition lowers them, and updates the pins on purpose.
"""
import random
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


# The node-scan benchmark's cases. Checks: the initial state, final_state and
# the target. eigvalsh: those three plus one batched pass over the records.
# eigh and svd: fidelity's two factors and its one SVD.
@pytest.mark.parametrize("hamiltonian, dim", [
    ("rwa", 3), ("rwa", 4), ("rwa", 5), ("full", 2), ("full", 3),
])
def test_generate_bell_pair_work(work, hamiltonian, dim):
    p = dynamics.LindbladParams(dim_c=dim, dim_m=dim)
    dynamics.generate_bell_pair(p, hamiltonian=hamiltonian)
    assert _tally(work) == (3, 4, 2, 1)


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
