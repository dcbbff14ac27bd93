"""Standard-library-only pieces shared by the numpy-free import paths.

The CLI parser, the hypergraph layer and the JSON readers use these without
loading numpy: the default search budget, the size-gate exception and the
JSON integer check.
"""

from __future__ import annotations

DEFAULT_BUDGET = 1 << 26


class TensorSizeError(ValueError):
    """A size gate: dense materialization past the 2**24 entry cap, or a
    search or ascent past the input size it handles (CLI exit 2)."""


def json_int(value, what: str) -> int:
    """A JSON integer field.  A bool, float or str is refused with
    ValueError rather than coerced; null, arrays and objects raise the
    TypeError of ``int()``, as any JSON value of the wrong type does."""
    if isinstance(value, (bool, float, str)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)
