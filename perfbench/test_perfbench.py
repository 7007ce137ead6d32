"""Self-tests of the benchmark harness (not of prodsums).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import child
import run
from workloads import WORKLOADS, workload

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _invoke(*args, cwd=HERE.parent):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace):
    done = _invoke("--workload", name, "--seed", "5", "--seconds", "0.2",
                   "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    *_, detail, result = (json.loads(line) for line in done.stdout.strip().splitlines())
    assert detail["detail"]["absent"] == {}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)), m["name"]


def _recorded(name):
    return json.loads((HERE / "reference.json").read_text())["workloads"][name]["ops"]


@pytest.mark.parametrize("name, path, delta", [
    ("clt-loo-large-n", (1, "ks"), 2e-9),
    ("clt-rw-small-n", (0, "sd"), -5e-9),
    ("asclt-path", (0, "A_N", 7), 1e-8),
    ("asclt-path", (1, "fallback_count"), 1),
])
def test_gate_fails_on_a_perturbed_reference(name, path, delta):
    w = workload(name)
    ops = _recorded(name)
    timed = [{"ops": ops, "csv": "same"}]
    serial = {"csv": "same"}
    assert run.check(w, timed, serial, ops)[1] == 0

    perturbed = copy.deepcopy(ops)
    *outer, last = path
    target = perturbed
    for key in outer:
        target = target[key]
    target[last] += delta
    attempted, failed, problems = run.check(w, timed, serial, perturbed)
    assert failed == 1 and attempted == len(ops) + 1
    assert problems


def test_gate_tolerates_last_digit_noise_and_catches_a_csv_mismatch():
    w = workload("clt-rw-small-n")
    ops = _recorded("clt-rw-small-n")
    nudged = copy.deepcopy(ops)
    nudged[0]["ks"] += 5e-10
    timed = [{"ops": ops, "csv": "workers=2"}]
    assert run.check(w, timed, {"csv": "workers=2"}, nudged)[1] == 0
    assert run.check(w, timed, {"csv": "workers=1"}, ops)[1] == 1


@pytest.fixture()
def tiny_asclt(tmp_path):
    cli = child.setup(workload("asclt-path", tiny=True), 5)
    return cli, str(tmp_path / "out.csv")


def test_missing_streaming_wrapper_drops_only_its_layer_on_rw(tiny_asclt, monkeypatch):
    # the runner keeps its own reference to init_state, so the program
    # still works; only the replay loses the function
    import prodsums.streaming

    cli, out = tiny_asclt
    w = dict(workload("asclt-path", tiny=True), kinds=["rw"])
    monkeypatch.delattr(prodsums.streaming, "init_state")
    replayed = child.replay(cli, w, 5, out)
    assert set(replayed["absent"]) == {"streaming.update"}
    layers = run.per_layer(w, replayed, 1.0)
    assert layers["streaming.update_ns_per_draw"][0] is None
    assert layers["asclt.accumulate_ns_per_step"][0] > 0
    timed = child.run_calls(cli, w, 5, out)
    assert run.check(w, [timed], replayed["serial"], replayed["ops"])[1] == 0


def test_missing_replay_function_leaves_timed_runs_to_agree(tiny_asclt, monkeypatch):
    import prodsums.streaming

    cli, out = tiny_asclt
    w = workload("asclt-path", tiny=True)
    monkeypatch.delattr(prodsums.streaming, "init_state")
    replayed = child.replay(cli, w, 5, out)
    assert "replay" in replayed["absent"] and replayed["ops"] is None
    layers = run.per_layer(w, replayed, 1.0)
    assert layers["asclt.steps"][0] is None
    assert layers["cli.write_ms"][0] > 0
    timed = [child.run_calls(cli, w, 5, out) for _ in range(2)]
    assert run.check(w, timed, replayed["serial"], None)[1] == 0
    timed[1]["ops"][0]["fallback_count"] += 1
    assert run.check(w, timed, replayed["serial"], None)[1] == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _invoke("--workload", "clt-loo-large-n", "--seed", "1", "--seconds", "1",
                   "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
