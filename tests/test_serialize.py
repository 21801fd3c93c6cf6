import json

import numpy as np
import pytest

from regionrules import (
    CategoryEquals,
    DataTable,
    FeatureColumn,
    Interval,
    Rule,
    RuleSet,
    RuleStats,
)
from regionrules.errors import SchemaError
from regionrules.serialize import (
    rule_from_dict,
    rule_set_to_dict,
    rule_to_dict,
    rules_from_dict,
)


@pytest.fixture()
def mixed_table():
    return DataTable(
        (
            FeatureColumn("age", "numeric", np.array([30.0, 40.0])),
            FeatureColumn("sex", "categorical", np.array(["f", "m"], dtype=object)),
        )
    )


def test_rule_round_trip(mixed_table):
    rules = [
        Rule(0, Interval(0.30000000000000004, 12.7)),  # precision must survive
        Rule(1, CategoryEquals("f")),
    ]
    for r in rules:
        d = json.loads(json.dumps(rule_to_dict(mixed_table, r)))
        assert rule_from_dict(mixed_table, d) == r


def test_rule_set_dict_shape(mixed_table):
    rs = RuleSet(
        rules=(Rule(0, Interval(30.0, 40.0)),),
        stats=RuleStats(support=2, tp=1, target_count=1),
    )
    d = rule_set_to_dict(mixed_table, rs)
    assert d == {
        "rules": [{"feature": "age", "op": "in_interval", "lo": 30.0, "hi": 40.0}],
        "support": 2,
        "confidence": 0.5,
        "fitness": 0.0,
        "step_ratios": [],
    }
    assert rules_from_dict(mixed_table, d) == rs.rules


def test_unknown_op_rejected(mixed_table):
    with pytest.raises(SchemaError):
        rule_from_dict(mixed_table, {"feature": "age", "op": "lt", "value": 3})


def test_unknown_feature_rejected(mixed_table):
    with pytest.raises(SchemaError):
        rule_from_dict(
            mixed_table, {"feature": "bmi", "op": "in_interval", "lo": 0, "hi": 1}
        )


@pytest.mark.parametrize(
    "d",
    [
        {"op": "in_interval", "lo": 0, "hi": 1},
        {"feature": "age", "op": "in_interval", "hi": 1},
        {"feature": "age", "op": "in_interval", "lo": 0},
        {"feature": "sex", "op": "eq"},
        {"feature": "age", "op": "in_interval", "lo": "low", "hi": 1},
        "age",
    ],
)
def test_malformed_rule_is_a_schema_error(mixed_table, d):
    with pytest.raises(SchemaError):
        rule_from_dict(mixed_table, d)


def test_rule_set_without_rules_is_a_schema_error(mixed_table):
    with pytest.raises(SchemaError):
        rules_from_dict(mixed_table, {"support": 2})
