"""Record types are immutable values: equal fields make equal records with
equal hashes, no attribute can be assigned, and ``_replace`` derives a
changed copy through the type's own checks."""

import pytest

from ivroute.datagen import Dataset, IntentRecord
from ivroute.evaluation import ClassMetrics, ConfusionMatrix, EvalReport
from ivroute.menu import DtmfPath, MenuNode, MenuTree, TerminalPath
from ivroute.prompts import RoutingCondition
from ivroute.provider import ProviderConfig
from ivroute.router import ParsedResponse, RoutingResult, RoutingRun

FLAT = RoutingCondition.FLATTENED_PATHS


def node():
    return MenuNode(label="Root", digit=None, kind="menu", children=(
        MenuNode(label="Balance", digit="1", kind="action", action_type="self_service"),
    ))


def intent():
    return IntentRecord(id="1:b00", text="my balance?", ground_truth=DtmfPath("1"), origin="base",
                        base_id="1:b00", variant_index=0)


def result():
    return RoutingResult(intent_id="1:b00", raw_response="1", predicted="1", ground_truth="1", latency=0.25)


def matrix():
    return ConfusionMatrix(["1"], ["1", "INVALID", "UNKNOWN_PATH"], [[1, 0, 0]])


def metrics():
    return ClassMetrics(label="1", precision=1.0, recall=1.0, f1=1.0, support=1,
                        precision_defined=True, recall_defined=True)


# (builder, whether its fields are hashable); a builder makes a new record
# on every call, so two calls give equal records that are not the same object.
RECORDS = {
    "DtmfPath": (lambda: DtmfPath("2-1-9"), True),
    "MenuNode": (node, True),
    "MenuTree": (lambda: MenuTree(name="Menu", root=node()), True),
    "TerminalPath": (lambda: TerminalPath(DtmfPath("1"), ("Balance",), "self_service"), True),
    "IntentRecord": (intent, True),
    "Dataset": (lambda: Dataset(menu_name="Menu", records=[intent()]), False),
    "ProviderConfig": (lambda: ProviderConfig(endpoint_url="http://127.0.0.1/v1", max_in_flight=2), True),
    "ParsedResponse": (lambda: ParsedResponse(DtmfPath("1"), ("trim",)), True),
    "RoutingResult": (result, True),
    "RoutingRun": (lambda: RoutingRun(results=[result()], manifest={"run_id": "abc"}), False),
    "ConfusionMatrix": (matrix, False),
    "ClassMetrics": (metrics, True),
    "EvalReport": (lambda: EvalReport(accuracy=1.0, n=1, matrix=matrix(), per_class=[metrics()],
                                      condition=FLAT.value, dataset_filter="all", model_name="m"),
                   False),
}


@pytest.mark.parametrize("make, hashable", RECORDS.values(), ids=RECORDS)
def test_record_is_an_immutable_value(make, hashable):
    record, twin = make(), make()
    assert record == twin and record is not twin
    if hashable:
        assert hash(record) == hash(twin)
    for name in getattr(record, "_fields", ()):  # a DtmfPath is a str: it has no fields
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(twin, name))
    with pytest.raises(AttributeError):
        record.not_a_field = 1  # no instance __dict__ to put it in
    assert record == twin


def test_replace_derives_a_checked_copy():
    config = ProviderConfig()
    assert config._replace(max_in_flight=8).max_in_flight == 8 and config.max_in_flight == 4
    with pytest.raises(ValueError, match="max_retries"):
        config._replace(max_retries=9)
