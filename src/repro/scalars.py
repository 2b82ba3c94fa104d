"""What counts as a real number, written once.

Every number that crosses a trust boundary — a wire field, a
configuration knob, a search input, a histogram offset — goes through
:func:`require_number` or :func:`require_integer` over the :func:`is_real`
predicate.  The module imports nothing from the package, so the
histogram, core, routing and service layers all share it.
"""

from __future__ import annotations

import math
import numbers
from typing import Any

__all__ = ["is_real", "require_edge_key", "require_integer", "require_number"]


def is_real(value: Any) -> bool:
    """Whether ``value`` is a real scalar — numpy scalars yes, ``bool`` no.

    ``True`` is an ``int`` to Python, so an unguarded ``float(...)`` turns
    a JSON ``true`` into a legal-looking ``1.0``; every number crossing
    the trust boundary is checked here first.
    """
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def require_number(
    value: Any,
    expected: str,
    *,
    low: float = -math.inf,
    high: float = math.inf,
    open_low: bool = False,
    finite: bool = True,
    error: type[Exception] = ValueError,
) -> float:
    """``float(value)``, or raise ``error(f"{expected}, got {value!r}")``.

    Accepts a real, non-bool, non-NaN scalar within ``[low, high]``
    (``(low, high]`` with ``open_low``) that float64 can hold;
    ``finite=False`` admits the infinities as well.  An integer too large
    for float64 (JSON decodes a 401-digit number to one) reads as NaN
    here, and NaN fails every comparison.
    """
    try:
        number = float(value) if is_real(value) else math.nan
    except OverflowError:
        number = math.nan
    if (
        not (low < number <= high if open_low else low <= number <= high)
        or (finite and math.isinf(number))
    ):
        raise error(f"{expected}, got {value!r}")
    return number


def require_integer(
    value: Any,
    expected: str,
    *,
    low: float = -math.inf,
    error: type[Exception] = ValueError,
) -> int:
    """``int(value)``, or raise ``error(f"{expected}, got {value!r}")``.

    The integer form of :func:`require_number`: an integral, non-bool
    scalar (numpy integers normalise to plain ints), at least ``low``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
    ):
        raise error(f"{expected}, got {value!r}")
    return int(value)


def require_edge_key(key: Any) -> int:
    """The edge id a JSON object key names: exactly ``str(n)``, ``n >= 0``.

    ``int()`` also reads ``"+3"``, ``"03"``, ``"1_0"`` and non-ASCII
    digits, so two keys could name one edge and either silently win; only
    the form the product writes is accepted.
    """
    if not (isinstance(key, str) and key.isascii() and key.isdigit()) or (
        key[0] == "0" and key != "0"
    ):
        raise ValueError(f"an edge id key must be str(n) for an integer n >= 0, got {key!r}")
    return int(key)
