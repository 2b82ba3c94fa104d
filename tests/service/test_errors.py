"""The trust boundary's scalar validators and JSON-line parser.

Every wire number and configuration knob goes through :func:`require_number`
or :func:`require_integer`, and every request line through
:func:`decode_request`; the service-level tests drive them through whole
documents, these pin each helper's own contract.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.service.errors import (
    decode_request,
    error_document,
    is_real,
    require_integer,
    require_number,
)


class TestIsReal:
    @pytest.mark.parametrize(
        "value", [3, -2.5, np.int64(7), np.float32(0.5), Fraction(1, 3)]
    )
    def test_accepts_real_scalars(self, value):
        assert is_real(value)

    @pytest.mark.parametrize("value", [True, False, "1", None, 1j])
    def test_rejects_bools_and_non_reals(self, value):
        assert not is_real(value)


class TestRequireNumber:
    def test_returns_a_plain_float(self):
        value = require_number(np.float32(2.5), "x must be a number")
        assert value == 2.5 and type(value) is float

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_default(self, value):
        with pytest.raises(ValueError, match="x must be finite"):
            require_number(value, "x must be finite")

    def test_infinities_admitted_when_not_finite_but_nan_never(self):
        assert require_number(math.inf, "x", finite=False) == math.inf
        assert require_number(-math.inf, "x", finite=False) == -math.inf
        with pytest.raises(ValueError):
            require_number(math.nan, "x", finite=False)

    def test_bounds_are_inclusive(self):
        assert require_number(0, "x", low=0, high=1) == 0.0
        assert require_number(1, "x", low=0, high=1) == 1.0
        with pytest.raises(ValueError):
            require_number(1.0000001, "x", low=0, high=1)

    def test_open_low_excludes_the_lower_bound(self):
        with pytest.raises(ValueError):
            require_number(0, "x must be positive", low=0, open_low=True)
        assert require_number(1e-12, "x", low=0, open_low=True) == 1e-12

    def test_message_names_the_value_and_error_type_is_the_callers(self):
        with pytest.raises(TypeError) as caught:
            require_number("900", "ttl must be a number", error=TypeError)
        assert str(caught.value) == "ttl must be a number, got '900'"


class TestRequireInteger:
    def test_numpy_integers_normalise_to_plain_ints(self):
        value = require_integer(np.int32(4), "n must be an integer")
        assert value == 4 and type(value) is int

    @pytest.mark.parametrize("value", [True, 1.0, "3", np.float64(2.0)])
    def test_rejects_bools_and_non_integrals(self, value):
        with pytest.raises(ValueError, match="n must be an integer"):
            require_integer(value, "n must be an integer")

    def test_low_bound_is_inclusive(self):
        assert require_integer(1, "n", low=1) == 1
        with pytest.raises(ValueError, match=r"n must be >= 1, got 0"):
            require_integer(0, "n must be >= 1", low=1)


class TestDecodeRequest:
    def test_returns_the_object(self):
        assert decode_request('{"op": "stats"}') == {"op": "stats"}

    @pytest.mark.parametrize("line", ["[]", "1", "null", '"route"', "true"])
    def test_json_that_is_not_an_object_is_a_type_error(self, line):
        with pytest.raises(TypeError, match="must be an object"):
            decode_request(line)

    @pytest.mark.parametrize("line", ["", "{", "{'op': 'stats'}"])
    def test_unparseable_text_is_a_value_error(self, line):
        with pytest.raises(ValueError):
            decode_request(line)

    def test_nesting_past_the_recursion_limit_is_a_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            decode_request("[" * 100_000 + "]" * 100_000)


def test_error_document_is_the_one_failure_shape():
    document = error_document(KeyError("slice 'dawn'"))
    assert document == {
        "ok": False,
        "error": "KeyError: \"slice 'dawn'\"",
        "error_kind": "bad_request",
    }
    assert json.loads(json.dumps(document)) == document
