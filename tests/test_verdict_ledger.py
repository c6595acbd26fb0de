"""Every verdict of the radial theorem battery, on seeds 0-5, matches the
committed ledger (see ``tests/verdict_ledger.py``, which also rewrites it)."""

import json

import verdict_ledger


def test_battery_verdicts_match_the_ledger(tmp_path):
    want = json.loads(verdict_ledger.LEDGER.read_text())
    got = verdict_ledger.compute(str(tmp_path))
    assert verdict_ledger.differences(want, got) == []


def test_a_moved_margin_or_flag_is_a_difference():
    want = {"0/op": {"passed": True, "min_margin": 1e-3, "deviation": 0.0, "note": "x"}}
    assert verdict_ledger.differences(want, want) == []
    for path, value in (("passed", False), ("min_margin", 1e-3 * (1 + 1e-8)),
                        ("deviation", 2e-12), ("note", "y"), ("passed", 1)):
        got = {"0/op": {**want["0/op"], path: value}}
        assert verdict_ledger.differences(want, got) == [
            f"0/op {path}: {want['0/op'][path]!r} -> {value!r}"]
    close = {"0/op": {**want["0/op"], "min_margin": 1e-3 * (1 + 1e-10), "deviation": 5e-13}}
    assert verdict_ledger.differences(want, close) == []
    assert verdict_ledger.differences(want, {}) == ["0/op: missing"]
