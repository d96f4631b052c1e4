"""Self-tests for the benchmark itself.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (os.path.join(ROOT, "src"), HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import inputs  # noqa: E402

_SAMPLES = [(seed, index) for seed in (0, 1, 17) for index in (0, 1, 5, 11)]


def _generated(seed: int, index: int) -> dict:
    return {
        "bulk": inputs.bulk_config(seed, index).to_dict(),
        "service": inputs.service_config(seed, index).to_dict(),
        "resubmit": inputs.resubmit_index(seed, index),
        "campaign": list(inputs.campaign_op(seed, index)),
        "replay": [c.to_dict() for c in inputs.replay_configs(seed)],
    }


def _run(*args: str) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_inputs_are_a_pure_function_of_the_seed():
    here = {f"{s}/{i}": _generated(s, i) for s, i in _SAMPLES}
    code = ("import json, sys; sys.path[:0] = [%r, %r]; import test_perfbench as t; "
            "print(json.dumps({f'{s}/{i}': t._generated(s, i) for s, i in t._SAMPLES}))"
            % (os.path.join(ROOT, "src"), HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONHASHSEED": "12345"})
    assert json.loads(out.stdout) == json.loads(json.dumps(here))
    assert _generated(1, 0) != _generated(2, 0)
    assert _generated(1, 0)["bulk"] != _generated(1, 1)["bulk"]


def test_bulk_inputs_stay_in_their_declared_ranges():
    for seed, index in _SAMPLES:
        traffic = inputs.bulk_config(seed, index).traffic
        assert 2 <= traffic.num_connections <= 8
        assert 256 * 1024 <= traffic.message_size <= 1024 * 1024
        assert traffic.num_connections * traffic.message_size * traffic.num_msgs_per_qp \
            == inputs.BULK_BYTES
        kinds = {e.type for e in traffic.data_pkt_events}
        assert kinds == {"drop", "ecn"}


def test_output_check_flags_a_one_byte_change():
    import repro.api as api
    from repro.store.serialize import encode_result

    doc = bytearray(checks.canonical(encode_result(api.run_test(inputs.warmup_config()))))
    good = checks.digest([bytes(doc)])
    doc[len(doc) // 2] ^= 0x01
    bad = checks.digest([bytes(doc)])
    assert bad != good
    table = {"bulk": {"3": [good[:checks.REFERENCE_DIGITS]]}}
    check = checks.OutputCheck("bulk", 3, table)
    assert check.record(0, good)
    assert not check.mismatched_ops
    check = checks.OutputCheck("bulk", 3, table)
    assert not check.record(0, bad)
    assert check.mismatched_ops == {0}


def test_every_printed_metric_is_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    doc = _run("--workload", "bulk", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert doc["correct"] and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == e2e
    doc = _run("--workload", "bulk", "--seed", "1", "--trace", "1")
    assert doc["correct"]
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == layers


def test_reference_table_matches_the_program():
    table = checks.load_references()
    assert set(table) == {"bulk", "campaign", "replay", "service"}
    assert all(len(table[w]["1"]) >= 2 for w in table)
    doc = _run("--workload", "bulk", "--seed", "1", "--ops", "2")
    assert doc["correct"] and doc["attempted"] == 2
