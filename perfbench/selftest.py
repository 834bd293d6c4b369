"""Fast self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimal length (``--smoke --seconds 1``), untraced
and traced, and checks that:

* the last line is the result object, with every metric BENCHMARK.json
  names, each with its declared unit;
* the report names every end-to-end and per-layer metric of its workload,
  each with a unit, and the exit code is 0 exactly when every check passed;
* exact counts (tape nodes, contract calls, votes MB) repeat exactly
  across two seeds;
* the spans file is written;
* without ``src/`` the command exits non-zero and prints no result.

A smoke desk_train run trains one short epoch, so its accuracy check is
expected to fail; every other check must pass. Exits 1 on any failure.
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END = ("setup_s", "wall_s", "samples_per_s", "step_ms_p50",
              "step_ms_p90", "step_ms_p98", "peak_alloc_mb", "error_rate",
              "raw.setup_s", "raw.samples_per_s", "raw.step_ms_p50",
              "raw.step_ms_p90", "raw.step_ms_p98", "host.ref_ms")


def _phases(layer):
    return tuple(f"routing.{layer}.{p}_ms" for p in
                 ("votes", "e_step", "d_step", "m_step")) + (
        f"routing.{layer}.votes_mb",)


COMMON_LAYER = ("tensor.contract.fwd_ms", "tensor.contract.calls",
                "tensor.elementwise.fwd_ms", "tensor.reduce.fwd_ms",
                "trace.overhead_pct") + _phases("layer0")
PER_LAYER = {
    "desk_train": COMMON_LAYER + _phases("layer1") + (
        "routing.layer0.tape_nodes", "routing.layer1.tape_nodes",
        "tensor.backward_ms", "tensor.tape_nodes", "classifier.forward_ms",
        "nn.cross_entropy_ms", "classifier.evaluate_ms", "optim.step_ms",
        "data.make_dataset_ms"),
    "route_bulk": COMMON_LAYER + _phases("layer1") + (
        "data.read_capsules_ms", "classifier.predict_proba_ms",
        "cli.route_self_ms", "data.make_dataset_ms",
        "data.write_capsules_ms"),
    "wide_route": COMMON_LAYER + (
        "routing.layer0.tape_nodes", "tensor.backward_ms",
        "tensor.tape_nodes"),
}
EXACT_COUNTS = ("tensor.tape_nodes", "tensor.contract.calls",
                "routing.layer0.tape_nodes", "routing.layer1.tape_nodes",
                "routing.layer0.votes_mb", "routing.layer1.votes_mb")
SMOKE_MAY_FAIL = {"val_accuracy_above_bar"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(root: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=600)
    return proc


def check_run(workload: str, seed: int, trace: int, contract: dict):
    tag = f"{workload} seed={seed} trace={trace}"
    proc = bench(ROOT, workload, seed, trace)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        expect(False, f"{tag}: last line is a JSON result\n{proc.stderr}")
        return None
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{tag}: result has exactly correct/attempted/failed/metrics")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1
           and isinstance(result["failed"], int),
           f"{tag}: attempted and failed are whole numbers, attempted >= 1")
    declared = contract["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           f"{tag}: result holds every declared metric and no other")
    for m in declared:
        got = result["metrics"].get(m["name"], {})
        expect(got.get("unit") == m["unit"]
               and isinstance(got.get("value"), (int, float)),
               f"{tag}: {m['name']} is a number in {m['unit']}")

    report_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    report = json.loads(report_path.read_text())["reports"][0]
    named = END_TO_END + (("val_accuracy",) if workload == "desk_train"
                          else ())
    if trace:
        named = PER_LAYER[workload] + ("error_rate",)
    missing = [n for n in named if not report["metrics"].get(n, {}).get(
        "unit")]
    expect(not missing, f"{tag}: report names every metric with a unit"
           + (f" (missing {missing})" if missing else ""))
    failed = [c["name"] for c in report["checks"] if not c["ok"]]
    expect(not set(failed) - SMOKE_MAY_FAIL,
           f"{tag}: every check passes" + (f" (failed {failed})"
                                           if failed else ""))
    expect((proc.returncode == 0) == (not failed) and proc.returncode in (0, 1),
           f"{tag}: exit code {proc.returncode} matches the checks")
    if trace:
        spans = ROOT / report["spans"]["file"]
        with gzip.open(spans, "rt") as f:
            header = f.readline().strip()
            rows = sum(1 for _ in f)
        expect(header == "id,parent,name,start_ns,end_ns"
               and rows == report["spans"]["count"] > 0,
               f"{tag}: spans file holds {rows} spans")
    return report


def check_missing_src() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = bench(bare, "route_bulk", 1, 0)
        no_result = not any(line.startswith("{")
                            for line in proc.stdout.splitlines())
        expect(proc.returncode != 0 and no_result,
               f"without src/: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    for workload in ("desk_train", "route_bulk", "wide_route"):
        check_run(workload, 1, 0, contract)
        traced = [check_run(workload, seed, 1, contract) for seed in (1, 2)]
        if all(traced):
            a, b = (r["metrics"] for r in traced)
            for name in EXACT_COUNTS:
                if name in a:
                    expect(name in b and a[name]["value"] == b[name]["value"],
                           f"{workload}: {name} = {a[name]['value']} repeats "
                           f"exactly across seeds")
    check_missing_src()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
