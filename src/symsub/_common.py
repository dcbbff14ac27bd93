"""Standard-library-only pieces shared by the numpy-free import paths.

The CLI parser, the hypergraph layer and the JSON readers use these without
loading numpy: the default search budget, the size gate and the dense entry
cap, the JSON integer check, the domain check (a tag, a prime below 2**16),
and the one reader of the tensor, map and certificate JSON formats.  The
reader makes every check of those formats, in the order the library always
made them, and returns plain Python values that the numpy builders in
``tensors`` and ``restrict`` only place in arrays; so a malformed CLI input
fails before numpy loads.  Left to the builders are the shapes numpy itself
refuses (more than 64 legs, or a zero-size shape beside a dimension too large
for an index) and the ``Certificate`` invariants (a known kind, one map when
symmetric).
"""

from __future__ import annotations

import math
import operator
from typing import Optional

DEFAULT_BUDGET = 1 << 26
ENTRY_CAP = 1 << 24
MAX_PRIME = 1 << 16


class TensorSizeError(ValueError):
    """A size gate: dense materialization past the 2**24 entry cap, or a
    search or ascent past the input size it handles (CLI exit 2)."""


class DomainError(ValueError):
    """Invalid domain construction, domain mismatch, or unsupported scalar op."""


def check_cap(shape) -> None:
    """Refuse a dense shape of more than 2**24 entries (TensorSizeError)."""
    total = 1
    for d in shape:
        total *= int(d)
    if total > ENTRY_CAP:
        raise TensorSizeError(
            f"tensor too large: {'x'.join(str(d) for d in shape)} = {total} "
            f"entries exceeds the dense cap of 2**24"
        )


def json_int(value, what: str) -> int:
    """A JSON integer field.  A bool, float or str is refused with
    ValueError rather than coerced; null, arrays and objects raise the
    TypeError of ``int()``, as any JSON value of the wrong type does."""
    if isinstance(value, (bool, float, str)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# the domain check
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_prime(p) -> int:
    """p as an int if it is a prime below 2**16 (by trial division), else
    DomainError.  An int or a numpy integer is taken, not 7.0 or "7"."""
    try:
        p = operator.index(p)
    except TypeError:
        raise DomainError(f"not a prime: {p!r}") from None
    if not _is_prime(p):
        raise DomainError(f"not a prime: {p!r}")
    if p >= MAX_PRIME:
        raise DomainError(f"prime too large: {p} >= 2**16")
    return p


def domain_prime(name) -> Optional[int]:
    """The checked prime p of a domain tag "F<p>", or None for "C"; any
    other tag is a DomainError."""
    if name == "C":
        return None
    if isinstance(name, str) and name.startswith("F"):
        try:
            p = int(name[1:])
        except ValueError:
            raise DomainError(f"unknown domain tag: {name!r}") from None
        return check_prime(p)
    raise DomainError(f"unknown domain tag: {name!r}")


# ---------------------------------------------------------------------------
# the JSON reader (1-based indices; complex scalars as [re, im])
# ---------------------------------------------------------------------------

def _scalar(p: Optional[int], v):
    """One JSON scalar: an F_p residue, or a finite complex number given as
    a bare JSON number or an [re, im] pair."""
    if p is not None:
        return json_int(v, "prime-field entry") % p
    parts = v if isinstance(v, list) else [v]  # [re, im] or a bare number
    if any(isinstance(x, (bool, str)) for x in parts):  # refused, not coerced
        raise ValueError(f"complex entry must hold JSON numbers, got {v!r}")
    if isinstance(v, (int, float)):
        z = complex(v)
    elif isinstance(v, list) and len(v) == 2:
        z = complex(float(v[0]), float(v[1]))
    else:
        raise ValueError(f"bad complex entry: {v!r}")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):  # NaN, Infinity, 1e400
        raise ValueError(f"complex entry is not finite: {v!r}")
    return z


def read_tensor(obj) -> tuple:
    """The tensor JSON format, checked: (domain tag, dims, entries), where
    entries maps each row-major flat offset to its scalar.  A missing key
    raises KeyError and a wrongly typed value TypeError; a bool, float or
    str where an integer belongs, or an index given twice, raises
    ValueError; a shape past the dense cap raises TensorSizeError."""
    k = json_int(obj["order"], "tensor order")
    dims = [json_int(d, "tensor dimension") for d in obj["dims"]]
    tag = obj["domain"]
    p = domain_prime(tag)
    entries = obj["entries"]
    if len(dims) != k:
        raise ValueError(f"order {k} but {len(dims)} dims")
    if any(d < 0 for d in dims):
        raise ValueError(f"negative dimension in {dims}")
    check_cap(dims)
    values = {}
    for ent in entries:
        idx = [json_int(i, "entry index") - 1 for i in ent["idx"]]
        if len(idx) != k or any(i < 0 or i >= d for i, d in zip(idx, dims)):
            raise ValueError(f"index out of range: {ent['idx']}")
        offset = 0
        for i, d in zip(idx, dims):
            offset = offset * d + i
        if offset in values:  # the file would mean whichever value comes last
            raise ValueError(f"duplicate index: {ent['idx']}")
        values[offset] = _scalar(p, ent["val"])
    return tag, dims, values


def read_map(obj) -> tuple:
    """The map JSON format, checked: (domain tag, rows, cols, the entries
    row by row), with the errors of :func:`read_tensor`."""
    rows = json_int(obj["rows"], "map rows")
    cols = json_int(obj["cols"], "map cols")
    tag = obj["domain"]
    p = domain_prime(tag)
    data = obj["data"]
    if len(data) != rows or any(len(r) != cols for r in data):
        raise ValueError(f"matrix data is not {rows}x{cols}")
    if cols < 0:  # with no rows: numpy's refusal of the shape (0, cols)
        raise ValueError("negative dimensions are not allowed")
    return tag, rows, cols, [_scalar(p, v) for row in data for v in row]


def read_certificate(obj) -> tuple:
    """The certificate JSON format, read: (kind, target, maps).  The kind
    and the number of maps are checked by the ``Certificate`` constructor,
    after every value here is read."""
    return obj["kind"], read_tensor(obj["target"]), [read_map(m) for m in obj["maps"]]
