"""The fixed costs of the exact searches: batched leaf solves sized by work,
tables shared read-only between searches, and cached unit tensors."""

import itertools

import numpy as np
import pytest

from conftest import F2, F3, F5, tight_tensor, w_tensor
from symsub import (
    Hypergraph,
    Tensor,
    adjacency_tensor,
    alpha_chain_check,
    flattening_rank,
    restriction_exists,
    subrank_exact,
    symsubrank_exact,
    unit_tensor,
    verify_certificate,
)
from symsub.restrict import _leg_stack, _root_orbit_leads


@pytest.fixture
def solves(monkeypatch):
    """The number of ``linalg.solve_stack`` calls made so far."""
    from symsub import linalg

    calls = []
    solve_stack = linalg.solve_stack

    def counted(T, G, domain):
        calls.append(len(T))
        return solve_stack(T, G, domain)

    monkeypatch.setattr(linalg, "solve_stack", counted)
    return calls


def seeded_refutations(count):
    """2 x 2 x 2 tensors over F3 with full flattening ranks and subrank 1,
    drawn from default_rng(17): <2> is refuted by exhaustion."""
    rng = np.random.default_rng(17)
    found = []
    while len(found) < count:
        f = Tensor(F3, rng.integers(0, 3, (2, 2, 2)))
        if all(flattening_rank(f, [leg]) == 2 for leg in range(3)) and \
                restriction_exists(unit_tensor(2, 3, F3), f) is None:
            found.append(f)
    return found


def test_a_small_search_makes_one_batched_solve_per_target(solves):
    """Each <r> step of subrank_exact on a 2 x 2 x 2 refutation, and
    <2> <= W over F3, solves at most one block of map tuples.  On a
    2 x 2 x 2 tensor every map onto <2> is invertible, so each partial tensor
    of the <2> steps that does not vanish off the diagonal prefixes is
    dropped before the solve: here all of them are."""
    for f in seeded_refutations(3):
        solves.clear()
        value, cert = subrank_exact(f)
        assert value == 1 and verify_certificate(cert, f)
        assert solves == [16]  # the <1> find; the <2> refutation solves nothing
    solves.clear()
    assert restriction_exists(unit_tensor(2, 3, F3), w_tensor(F3)) is None
    assert solves == []


def test_a_square_four_uniform_chain_solves_few_blocks(solves):
    """The chain of the first concise 3-vertex 4-uniform hypergraph over F2
    drawn from default_rng(1) (24 of the 78 non-constant 4-tuples): the
    plain search refutes <3> on the 3 x 3 x 3 x 3 adjacency tensor, whose
    maps on legs 3 and 4 would be invertible, so it drops the partial
    tensors that do not vanish off the diagonal prefixes and solves 630
    tuples in 4 blocks (1,544,130 in 2,467 without)."""
    rng = np.random.default_rng(1)
    tuples = [t for t in itertools.product(range(1, 4), repeat=4) if len(set(t)) > 1]
    while True:
        h = Hypergraph(3, 4, [tuples[i] for i in rng.choice(len(tuples), 24, replace=False)])
        a = adjacency_tensor(h, F2)
        if all(flattening_rank(a, [leg]) == 3 for leg in range(4)):
            break
    report = alpha_chain_check(h, F2)
    assert (report.alpha, report.beta, report.sym_subrank, report.subrank) == (1, 1, 1, 2)
    assert report.ok and not report.separation
    assert (len(solves), sum(solves)) == (4, 630)


def test_an_early_find_keeps_its_certificate(solves):
    """<2> <= tight over F2 is found in the first chunk of tuples, which is
    larger than one prefix's; the certificate is still the first in search
    order."""
    cert = restriction_exists(unit_tensor(2, 3, F2), tight_tensor())
    assert [m.array.tolist() for m in cert.maps] == [
        [[0, 0, 1], [0, 1, 0]], [[0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 1]]]
    assert len(solves) == 1


def test_search_tables_are_shared_and_read_only():
    """The stacks of maps per leg and the orbit leads are built once per key:
    repeat searches make none, and writing to a stack raises."""
    f = tight_tensor()
    first = symsubrank_exact(f), subrank_exact(f)
    misses = _leg_stack.cache_info().misses, _root_orbit_leads.cache_info().misses
    again = symsubrank_exact(f), subrank_exact(f)
    assert (_leg_stack.cache_info().misses, _root_orbit_leads.cache_info().misses) == misses
    assert [c.maps[0].array.tolist() for _, c in first] == [c.maps[0].array.tolist() for _, c in again]
    # the symmetric root's rows are the plain search's one-row maps
    stack = _leg_stack(2, 3, 1, _root_orbit_leads(2, 3), False)
    assert stack is _leg_stack(2, 3, 1, (1,), False)
    assert stack[:, 0].tolist() == [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1],
                                    [1, 1, 0], [1, 1, 1]]
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1
    assert _root_orbit_leads(7, 3) is _root_orbit_leads(7, 3) == (1, 3)


def test_unit_tensors_are_shared_and_read_only():
    u = unit_tensor(2, 3, F5)
    assert u is unit_tensor(2, 3, F5)
    assert u.array.tolist() == [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    with pytest.raises(ValueError):
        u.array[0, 0, 0] = 0
    big = unit_tensor(17, 3, F2)  # over 2^12 entries: built on every call
    assert big is not unit_tensor(17, 3, F2)
    assert np.array_equal(np.argwhere(big.array), np.repeat(np.arange(17)[:, None], 3, axis=1))
    with pytest.raises(ValueError, match="r must be nonnegative, got -1"):
        unit_tensor(-1, 3, F5)
    assert unit_tensor(0, 0, F5).array.tolist() == 0
    assert unit_tensor(3, 0, F5).array.tolist() == 1

