"""Pinned outputs of the plain restriction search: the certificate maps (or
the refutation) of ``restriction_exists(<d>, f)`` and the value and
certificate maps of ``subrank_exact(f)``, on seeded d x ... x d tensors of
orders 3 and 4 over F2, F3 and F5, random and planted (<d> moved by
invertible maps), with each over-budget search's ``SearchInfeasibleError``.

A restriction onto <d> of a tensor whose legs all have dimension d needs an
invertible map on every leg, which the search uses to drop partial tensors
early; these pins were recorded before it did, and the current code must
reproduce them byte for byte.  Record them again (only after a deliberate
change of output) with

    PYTHONPATH=src python tests/test_restriction_pins.py
"""

import json
import os

import numpy as np
import pytest

from symsub import (
    LinearMap,
    SearchInfeasibleError,
    Tensor,
    apply,
    domain_from_name,
    linalg,
    restriction_exists,
    subrank_exact,
    unit_tensor,
)

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "restriction_pins.json")

# (field, order, dimension) of the pinned cells: two random and two planted
# tensors each
CELLS = [("F2", 3, 2), ("F2", 3, 3), ("F2", 4, 2), ("F2", 4, 3),
         ("F3", 3, 2), ("F3", 3, 3), ("F3", 4, 2), ("F5", 3, 2), ("F5", 4, 2)]


def pin_tensors():
    """(name, tensor) for every pinned tensor, one seeded generator per cell."""
    for name, k, d in CELLS:
        domain = domain_from_name(name)
        p = domain.p
        rng = np.random.default_rng([p, k, d])
        for i in range(2):
            yield f"k{k}d{d}/{name}/random/{i}", Tensor(domain, rng.integers(0, p, (d,) * k))
        for i in range(2):
            maps = []
            while len(maps) < k:
                A = rng.integers(0, p, (d, d))
                if linalg.rank(A, domain) == d:
                    maps.append(LinearMap(domain, A))
            yield f"k{k}d{d}/{name}/planted/{i}", apply(maps, unit_tensor(d, k, domain))


TENSORS = dict(pin_tensors())


def outputs(f):
    """The pinned outputs of f: the maps of <d> <= f (None for a refutation)
    and [value, maps] of its subrank, or the budget error's message."""
    def run(search):
        try:
            return search()
        except SearchInfeasibleError as exc:
            return str(exc)

    def exists():
        cert = restriction_exists(unit_tensor(f.dims[0], f.order, f.domain), f)
        return None if cert is None else [m.array.tolist() for m in cert.maps]

    def subrank():
        value, cert = subrank_exact(f)
        return [value, [m.array.tolist() for m in cert.maps]]

    return {"exists": run(exists), "subrank": run(subrank)}


@pytest.mark.parametrize("name", sorted(TENSORS))
def test_restriction_outputs_are_pinned(name):
    with open(PINS) as fh:
        pinned = json.load(fh)[name]
    f = TENSORS[name]
    assert [f.domain.name, f.array.tolist()] == pinned["tensor"]
    assert json.loads(json.dumps(outputs(f))) == pinned["outputs"]


def record():
    """Write restriction_pins.json from the current code."""
    doc = {
        name: {"tensor": [f.domain.name, f.array.tolist()], "outputs": outputs(f)}
        for name, f in TENSORS.items()
    }
    with open(PINS, "w") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    record()
