"""The names a tracer substitutes to time route_all layer by layer.

perfbench/layers.py wraps these by replacing attributes of the
``ivroute.router`` module and of the provider object for the duration of a
run. That only measures something while route_all looks each one up at call
time; a refactor that binds one early, or calls around it, would leave its
layer silently untimed. This checks the contract with plain counting
wrappers, without importing the benchmark.
"""

import json
from collections import Counter

from ivroute import router
from ivroute.prompts import RoutingCondition
from ivroute.provider import HttpProvider, ProviderConfig

from conftest import tiny_dataset

# Looked up on the ivroute.router module: by route_all itself, by the
# route_one it schedules, and by the route that route_one calls.
ROUTER_CALLS = (
    "validate_menu",
    "validate_dataset",
    "render_context",
    "route_one",
    "build_prompt",
    "parse_dtmf_response",
    "build_manifest",
)


def counting(calls: Counter, name: str, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_route_all_calls_every_substitutable_name(monkeypatch, tiny_tree):
    ds = tiny_dataset()
    calls = Counter()
    for name in ROUTER_CALLS:
        monkeypatch.setattr(router, name, counting(calls, name, getattr(router, name)))

    answers = [(503, "busy", "0")] + [
        (200, json.dumps({"choices": [{"message": {"content": "1-1"}}]}), None)
    ] * len(ds.records)

    def transport(payload):
        return answers.pop(0)

    config = ProviderConfig(endpoint_url="http://endpoint.test/v1", max_in_flight=2)
    provider = HttpProvider(config, transport=transport)
    provider.complete = counting(calls, "complete", provider.complete)
    provider._transport = counting(calls, "_transport", provider._transport)

    run = router.route_all(ds, RoutingCondition.FLATTENED_PATHS, tiny_tree, provider)

    assert len(run.results) == len(ds.records)
    attempts = len(ds.records) + 1  # one intent's first attempt got a 503
    assert calls == {
        "validate_menu": 1,
        "validate_dataset": 1,
        "render_context": 1,
        "route_one": attempts,
        "build_prompt": attempts,
        "parse_dtmf_response": len(ds.records),
        "build_manifest": 1,
        "complete": attempts,
        "_transport": attempts,
    }
