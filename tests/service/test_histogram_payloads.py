"""One trust rule for every ``{offset, probs}`` histogram payload.

:meth:`DiscreteDistribution.from_payload` is the only decoder: a
grid-integer offset within ±2**53, finite non-negative probabilities and mass within
1e-6 of 1.  The same malformed payloads are sent through every entry
point that decodes one; each is a ``ValueError`` (``bad_request`` on the
wire), and a rejected ``restore`` leaves the service as it was.  The wire
columns also send edge-id keys in any form but ``str(n)``.
"""

import json
import math

import pytest

from repro.core import ConvolutionModel, EdgeCostTable
from repro.network import grid_network
from repro.service import RoutingService
from repro.trajectories import CongestionModel

NETWORK = grid_network(4, 4, seed=2)
MODEL = CongestionModel(NETWORK, seed=3)

MALFORMED = {
    "half mass": {"offset": 3, "probs": [0.5]},
    "excess mass": {"offset": 3, "probs": [0.7, 0.7]},
    "fractional offset": {"offset": 2.7, "probs": [1.0]},
    "boolean offset": {"offset": True, "probs": [1.0]},
    "string offset": {"offset": "3", "probs": [1.0]},
    "nan probability": {"offset": 3, "probs": [math.nan]},
    "infinite probability": {"offset": 3, "probs": [math.inf, 0.0]},
    "negative probability": {"offset": 3, "probs": [1.5, -0.5]},
    "missing probs": {"offset": 3},
    "probs not a list": {"offset": 3, "probs": 1.0},
    "boolean probability": {"offset": 3, "probs": [True]},
    "string probability": {"offset": 3, "probs": ["1"]},
    "string probs": {"offset": 3, "probs": "1"},
    "mapping probs": {"offset": 3, "probs": {"1": 0}},
    "not a mapping": [3, [1.0]],
    "offset past 2**53": {"offset": 2**53 + 1, "probs": [1.0]},
    "offset 10**30": {"offset": 10**30, "probs": [1.0]},
    "offset 10**400": {"offset": 10**400, "probs": [1.0]},
    "probability 10**400": {"offset": 3, "probs": [10**400]},
}

cases = pytest.mark.parametrize("payload", MALFORMED.values(), ids=MALFORMED)

#: Edge-id keys other than ``str(n)`` for n >= 0, each beside a valid
#: payload, and a mapping with no edge at all.
GOOD = {"offset": 3, "probs": [1.0]}
BAD_KEYS = {
    "no edge": {},
    "key +3 beside 3": {"3": GOOD, "+3": GOOD},
    "key 03": {"03": GOOD},
    "key 1_0": {"1_0": GOOD},
    "key with a space": {" 3": GOOD},
    "key -1": {"-1": GOOD},
    "key 3.0": {"3.0": GOOD},
    "empty key": {"": GOOD},
    "arabic-indic key": {"\u0663": GOOD},
    "fullwidth key": {"\uff13": GOOD},
}

#: The wire columns take a whole ``costs`` mapping: each malformed payload
#: under edge 0, then each malformed key.
wire_cases = pytest.mark.parametrize(
    "costs",
    [{"0": payload} for payload in MALFORMED.values()] + list(BAD_KEYS.values()),
    ids=list(MALFORMED) + list(BAD_KEYS),
)


def service() -> RoutingService:
    costs = EdgeCostTable(NETWORK, resolution=5.0)
    for edge in NETWORK.edges:
        costs.set_cost(edge.id, MODEL.edge_marginal(edge))
    return RoutingService(NETWORK, ConvolutionModel(costs))


def assert_bad_request(response):
    assert response["ok"] is False
    assert response["error_kind"] == "bad_request"
    assert response["error"].startswith("ValueError")


@wire_cases
def test_wire_apply_update(costs):
    served = service()
    version = served.cost_version()
    assert_bad_request(
        served.handle_request(
            {"op": "apply_update", "update": {"kind": "cost_update", "costs": costs}}
        )
    )
    assert served.cost_version() == version


@wire_cases
def test_wire_schedule_incident(costs):
    served = service()
    incident = {
        "kind": "scheduled_incident",
        "incident_id": "bad",
        "start_time": 0.0,
        "end_time": 10.0,
        "costs": costs,
    }
    assert_bad_request(served.handle_request({"op": "schedule_incident", "incident": incident}))
    assert served.incidents() == service().incidents()


@cases
def test_restore(payload):
    donor = service()
    document = json.loads(json.dumps(donor.snapshot()))
    (entry,) = document["slices"].values()
    entry["cost_table"]["costs"]["0"] = payload
    served = service()
    served.route(served.engine().query(0, 15, 60))
    before = served.snapshot(include_cache=True)
    with pytest.raises(ValueError):
        served.restore(document)
    assert served.snapshot(include_cache=True) == before

