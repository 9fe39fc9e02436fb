"""Golden FaultPlan codec: one plan with every fault class and field.

``golden_plan.json`` is the plan's ``to_json()`` output, committed so any
change to the codec that moves a byte of a serialized plan fails here.
"""

import json
import os

import pytest

from repro.errors import FaultPlanError
from repro.faults.plan import (
    DataCorruption,
    DHTCoreFailure,
    DuplicateDelivery,
    FaultPlan,
    LinkDegradation,
    MemoryPressure,
    NetworkPartition,
    NodeCrash,
    SlowNode,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_plan.json")

GOLDEN_PLAN = FaultPlan(
    seed=7,
    node_crashes=(NodeCrash(node=3, time=0.5),),
    dht_failures=(DHTCoreFailure(core=4, time=0.25),),
    link_degradations=(
        LinkDegradation(0, 1, loss_factor=0.1, bandwidth_factor=0.5),
    ),
    slow_nodes=(SlowNode(node=2, start=0.1, duration=1.5, factor=3.0),),
    corruptions=(
        DataCorruption(probability=0.05),
        DataCorruption(src_node=1, dst_node=None, probability=0.02),
    ),
    duplications=(DuplicateDelivery(src_node=0, dst_node=2, probability=0.1),),
    partitions=(
        NetworkPartition(
            start=0.2, duration=0.6, groups=((0, 1), (2, 3)),
            symmetric=False, flap_period=0.1,
        ),
        NetworkPartition(start=0.3, duration=0.4, links=((0, 1), (1, 2))),
    ),
    memory_pressure=(
        MemoryPressure(node=1, start=0.0, duration=0.9, factor=0.4),
    ),
    drop_probability=0.01,
    corrupt_probability=0.02,
    max_retries=5,
    retry_timeout=0.002,
    retry_backoff=1.5,
)


def golden_text() -> str:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return fh.read()


def test_json_matches_golden_bytes():
    assert GOLDEN_PLAN.to_json() + "\n" == golden_text()


def test_to_dict_matches_golden_with_lists():
    data = GOLDEN_PLAN.to_dict()
    assert data == json.loads(golden_text())
    part = data["partitions"][0]
    assert part["groups"] == [[0, 1], [2, 3]]
    assert data["partitions"][1]["links"] == [[0, 1], [1, 2]]
    assert data["corruptions"][0]["src_node"] is None


def test_golden_round_trips():
    assert FaultPlan.from_json(golden_text()) == GOLDEN_PLAN
    assert FaultPlan.from_dict(GOLDEN_PLAN.to_dict()) == GOLDEN_PLAN


def test_empty_gray_and_later_classes_are_omitted():
    assert sorted(FaultPlan(seed=1).to_dict()) == [
        "corrupt_probability", "dht_failures", "drop_probability",
        "link_degradations", "max_retries", "node_crashes",
        "retry_backoff", "retry_timeout", "seed",
    ]


def test_defaults_and_coercions_on_decode():
    plan = FaultPlan.from_dict({
        "seed": "3",
        "node_crashes": [{"node": "2", "time": 1}],
        "link_degradations": [{"src_node": 0, "dst_node": 1}],
        "slow_nodes": [{"node": 1, "start": 0, "duration": 2}],
        "corruptions": [{"probability": 0.1}],
        "partitions": [{"start": 0, "duration": 1, "groups": [[0], [1]],
                        "symmetric": 0}],
        "memory_pressure": [{"node": 0, "start": 0, "duration": 1}],
        "max_retries": 4.0,
    })
    assert plan.seed == 3
    assert plan.node_crashes == (NodeCrash(2, 1.0),)
    assert isinstance(plan.node_crashes[0].time, float)
    assert plan.link_degradations[0].bandwidth_factor == 1.0
    assert plan.slow_nodes[0].factor == 2.0
    assert plan.corruptions[0].src_node is None
    part = plan.partitions[0]
    assert part.groups == ((0,), (1,)) and part.links == ()
    assert part.symmetric is False and part.flap_period is None
    assert plan.memory_pressure[0].factor == 0.5
    assert plan.max_retries == 4 and isinstance(plan.max_retries, int)
    assert plan.retry_timeout == 1e-4 and plan.retry_backoff == 2.0


@pytest.mark.parametrize(
    "data, match",
    [
        ({"bogus": 1}, "unknown fault-plan keys"),
        ({"node_crashes": [{"node": 1}]}, "malformed"),
        ({"partitions": [{"duration": 1, "groups": [[0]]}]}, "malformed"),
        ({"dht_failures": [{"core": 1, "time": "soon"}]}, "malformed"),
        ({"drop_probability": "high"}, "malformed"),
        ({"corruptions": [{"src_node": "x", "probability": 0.1}]},
         "malformed"),
        ({"partitions": [{"start": 0, "duration": 1,
                          "links": [[0, 1, 2]]}]}, "malformed"),
        ({"node_crashes": None}, "malformed"),
        ([1, 2], "must be an object"),
        ("plan", "must be an object"),
    ],
)
def test_bad_input_raises_fault_plan_error(data, match):
    with pytest.raises(FaultPlanError, match=match):
        FaultPlan.from_dict(data)


def test_merged_concatenates_faults_and_keeps_left_scalars():
    left = FaultPlan(seed=3, node_crashes=(NodeCrash(1, 0.5),),
                     drop_probability=0.1, max_retries=5)
    merged = left.merged(GOLDEN_PLAN)
    assert merged.node_crashes == left.node_crashes + GOLDEN_PLAN.node_crashes
    assert merged.partitions == GOLDEN_PLAN.partitions
    assert (merged.seed, merged.drop_probability, merged.max_retries) == (
        3, 0.1, 5)
    assert merged.corrupt_probability == 0.0
    assert FaultPlan().merged(FaultPlan()).is_empty
