import re

from servebench.harness import BENCHMARK, END_TO_END, PER_LAYER, REPORTED, SPEC

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _all_names():
    return [w["name"] for w in BENCHMARK["workloads"]] + list(END_TO_END) + list(PER_LAYER)


def test_metric_and_workload_names_are_valid_and_unique():
    names = _all_names()
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(u) for u in list(END_TO_END.values()) + list(PER_LAYER.values()))


def test_name_rule_rejects_bad_names():
    for bad in ("", "_lead", "has space", "slash/name", "x" * 65, "pct%"):
        assert not NAME.match(bad)


def test_every_layer_metric_says_what_it_should_move():
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    for name in PER_LAYER:
        for target, where in SPEC["per_layer"][name]["should_move"].items():
            assert target in END_TO_END or target in REPORTED
            assert set(where) <= workloads
