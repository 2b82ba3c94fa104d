"""The serving layer's error taxonomy: typed exceptions and wire codes.

The wire protocol's always-answer contract turns every failure into an
``{"ok": false, ...}`` document.  Stringified exceptions alone are useless
to a client that must *dispatch* on the failure (retry? fall back? fix the
request?), so every error document also carries a stable ``error_kind``
code from a closed set:

* ``"bad_request"`` — the request itself is malformed (unknown op or
  strategy, invalid kwargs, unparseable JSON).  Retrying verbatim will
  fail again; fix the request.
* ``"no_route"`` — the degradation ladder proved no route exists at all
  (even the deterministic fallback found nothing).  Definitive; retrying
  is pointless.
* ``"deadline_exceeded"`` — the request's ``deadline_ms`` expired and no
  rung of the degradation ladder had an answer (not even a stale one).
  Retrying with a larger deadline may succeed.
* ``"internal"`` — anything else: a bug, an injected fault that exhausted
  its retries.  Retrying may succeed; alert an operator either way.

The codes are part of the wire contract (tests pin them); the exception
*types* below exist so in-process callers can catch precisely instead of
string-matching.

The rest of the trust boundary lives here too, once each: the error
document shape (:func:`error_document`) and JSON-line parsing
(:func:`decode_request`).  The scalar validators every configuration knob
and wire number goes through live in :mod:`repro.scalars`.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

__all__ = [
    "DeadlineExceededError",
    "FrontendClosedError",
    "NoRouteError",
    "decode_request",
    "error_document",
    "error_kind",
]


class DeadlineExceededError(RuntimeError):
    """A request's deadline expired with nothing to serve.

    Raised only after the whole degradation ladder came up empty: the
    bounded search had no pivot, the deterministic fallback was skipped or
    declined, and no stale cache entry exists for the query.
    """


class NoRouteError(RuntimeError):
    """The degradation ladder proved no route exists for the query.

    Distinct from :class:`DeadlineExceededError`: the service *did* get a
    definitive answer — the deterministic fallback found the target
    unreachable — so retrying with a larger deadline cannot help.
    """


class FrontendClosedError(RuntimeError):
    """A request was submitted to a frontend that is not accepting work.

    Subclasses ``RuntimeError`` so pre-existing callers catching broadly
    keep working; new callers catch this precisely to distinguish "the
    pool is shutting down" from genuine runtime bugs.
    """


def error_kind(exc: BaseException) -> str:
    """The stable wire code for an exception (see the module docstring).

    The mapping is deliberately conservative: only exception types the
    request path raises *by contract* get a specific code; everything else
    is ``"internal"`` so a refactor cannot silently relabel a bug as a
    client mistake.
    """
    if isinstance(exc, DeadlineExceededError):
        return "deadline_exceeded"
    if isinstance(exc, NoRouteError):
        return "no_route"
    # KeyError: unknown slice/strategy/missing field; ValueError covers
    # validation failures (json.JSONDecodeError subclasses it); TypeError/
    # IndexError: malformed payload shapes and unknown edge ids.
    if isinstance(exc, (KeyError, ValueError, TypeError, IndexError)):
        return "bad_request"
    return "internal"


def error_document(exc: BaseException) -> dict[str, Any]:
    """The wire's one failure shape: ``{"ok": false, "error", "error_kind"}``."""
    return {
        "ok": False,
        "error": f"{type(exc).__name__}: {exc}",
        "error_kind": error_kind(exc),
    }


def decode_request(line: str) -> Mapping[str, Any]:
    """Parse one JSON request line into a request document.

    The one place parse failures are decided: unparseable text raises
    ``ValueError`` (``json.JSONDecodeError``, the integer digit limit, or
    nesting deeper than the parser recurses) and JSON that is not an
    object ``TypeError`` — callers catch those two, both ``bad_request``
    through :func:`error_document`, whichever frontend speaks the wire.
    """
    try:
        request = json.loads(line)
    except RecursionError:
        raise ValueError("request is nested too deeply to parse") from None
    if not isinstance(request, Mapping):
        raise TypeError("request must be an object")
    return request
