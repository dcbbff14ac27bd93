"""Pinned outputs of the symmetric searches: the value and certificate rows of
``symsubrank_exact``, and the certificate rows (or the refutation) of
``symrestriction_exists(<e>, f)`` for every e <= d, on seeded tensors of
orders 2, 3 and 4 over F2, F3, F5 and F7 (dense, symmetric, sparse and low
rank), with each over-budget search's ``SearchInfeasibleError``.

The pins in ``symsub_pins.json`` were recorded from the search that scored
every candidate row again at each node, before the unit search became a
clique search over a pair graph; the current code must reproduce them byte
for byte.  Record them again (only after a deliberate change of output) with

    PYTHONPATH=src python tests/test_symsub_pins.py
"""

import json
import os

import numpy as np
import pytest

from conftest import random_symmetric
from symsub import (
    SearchInfeasibleError,
    Tensor,
    domain_from_name,
    symrestriction_exists,
    symsubrank_exact,
    unit_tensor,
)

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "symsub_pins.json")

# (order, dimension, fields, tensors per kind) of the dense, symmetric and
# sparse families; each cell stays small enough for every search to be quick
CELLS = [
    (2, 2, "F2 F3 F5 F7", 2),
    (2, 3, "F2 F3 F5 F7", 3),
    (2, 4, "F2 F3 F5", 3),
    (2, 5, "F2 F3", 3),
    (2, 6, "F2", 3),
    (3, 2, "F2 F3 F5 F7", 2),
    (3, 3, "F2 F3 F5 F7", 3),
    (3, 4, "F2 F3", 3),
    (4, 2, "F2 F3 F5 F7", 2),
    (4, 3, "F2 F3", 3),
]
# (dimension, field, ranks) of the low-rank matrices: sums of rank-one terms
LOW_RANK = [(5, "F2", (2, 3, 4)), (6, "F2", (2, 3, 4)), (7, "F2", (2, 3, 4)),
            (8, "F2", (2, 3)), (4, "F5", (1, 2, 3))]


def pin_tensors():
    """(name, tensor) for every pinned tensor, from one seeded generator."""
    rng = np.random.default_rng(2026)
    for k, d, fields, reps in CELLS:
        for name in fields.split():
            domain = domain_from_name(name)
            shape = (d,) * k
            for i in range(reps):
                tag = f"k{k}d{d}/{name}/{i}"
                yield f"dense/{tag}", Tensor(domain, rng.integers(0, domain.p, size=shape))
                yield f"sym/{tag}", random_symmetric(rng, d, k, domain)
                mask = rng.random(shape) < 0.25
                yield f"sparse/{tag}", Tensor(domain, mask * rng.integers(1, domain.p, size=shape))
    for d, name, ranks in LOW_RANK:
        domain = domain_from_name(name)
        for r in ranks:
            for i in range(4):
                u, v = rng.integers(0, domain.p, size=(2, r, d))
                if i % 2:  # symmetric: u u^T
                    v = u
                yield f"lowrank/d{d}r{r}/{name}/{i}", Tensor(domain, (u.T @ v) % domain.p)


def _error(exc):
    return {"error": f"{type(exc).__name__}: {exc}", "required": exc.required}


def outputs(f):
    """Everything pinned for one tensor, as JSON values."""
    out = {}
    try:
        value, cert = symsubrank_exact(f)
        out["symsubrank"] = [value, cert.maps[0].array.tolist()]
    except SearchInfeasibleError as exc:
        out["symsubrank"] = _error(exc)
    exists = []
    for e in range(f.dims[0] + 1):
        try:
            cert = symrestriction_exists(unit_tensor(e, f.order, f.domain), f)
            exists.append(None if cert is None else cert.maps[0].array.tolist())
        except SearchInfeasibleError as exc:
            exists.append(_error(exc))
    out["exists"] = exists
    return out


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as fh:
        return json.load(fh)


TENSORS = dict(pin_tensors())


@pytest.mark.parametrize("name", list(TENSORS))
def test_symmetric_searches_are_pinned(name, pins):
    f = TENSORS[name]
    pin = pins[name]
    assert [f.domain.name, (f.array % f.domain.p).tolist()] == pin["tensor"]
    assert outputs(f) == pin["outputs"]


def record():
    """Write symsub_pins.json from the current code."""
    doc = {
        name: {"tensor": [f.domain.name, (f.array % f.domain.p).tolist()], "outputs": outputs(f)}
        for name, f in TENSORS.items()
    }
    with open(PINS, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    record()
