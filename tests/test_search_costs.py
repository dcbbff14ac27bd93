"""The fixed costs of the exact searches: batched leaf solves sized by work,
tables shared read-only between searches, and cached unit tensors."""

import numpy as np
import pytest

from conftest import F2, F3, F5, tight_tensor, w_tensor
from symsub import (
    Tensor,
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
    <2> <= W over F3, solves every tuple of maps in one call."""
    for f in seeded_refutations(3):
        solves.clear()
        value, cert = subrank_exact(f)
        assert value == 1 and verify_certificate(cert, f)
        assert len(solves) == 2  # the <2> refutation, then the <1> find
    solves.clear()
    assert restriction_exists(unit_tensor(2, 3, F3), w_tensor(F3)) is None
    assert solves == [72]


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

