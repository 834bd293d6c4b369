"""The capsem benchmark.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 30 --trace 0

Runs one workload (or ``all`` of them, in one process) on inputs generated
from ``--seed``, checks the outputs, prints every metric by name and unit,
and ends with one JSON line: ``correct``, ``attempted``, ``failed`` and the
metrics listed in BENCHMARK.json (``end_to_end`` untraced, ``per_layer``
with ``--trace 1``). Exits 0 only if every check passed. The package is
imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPS = 5
# reference kernel calls sampled before and after each set-up
SETUP_REF_REPS = 5
WORKLOAD_NAMES = ("desk_train", "route_bulk", "wide_route")

TRACE_NOTES = (
    "routing.*.e_step_ms includes e_step's check that every variance is "
    "positive, which route() skips",
    "tensor.*.fwd_ms are self times of the public tensor op functions; "
    "per-op backward time needs tracing inside the program and is not "
    "reported",
    "a traced run traces every other step; per-layer times are per traced "
    "step, and trace.overhead_pct compares the median traced step with the "
    "median untraced step in between",
)


def _cap_blas_threads(nproc: int) -> None:
    """One BLAS thread unless the environment asks for 1..nproc; numpy is
    not loaded yet. A second thread on a small shared host measures the
    scheduler more than the program."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = "1"


def _blas_threads(np) -> int | str:
    """Thread count reported by numpy's bundled OpenBLAS, if it has one."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    symbols = ("scipy_openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def _git_commit() -> str:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=30)
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
            return "unavailable (not a git checkout)"
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        return head.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable (git not runnable)"


def environment(seed: int, nproc: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _overhead(run) -> dict:
    """Median traced against median untraced step of one traced run, both
    at the reference host speed."""
    steps = run.normalized_ms()
    traced = [ms for ms, t in zip(steps, run.traced) if t]
    plain = [ms for ms, t in zip(steps, run.traced) if not t]
    if not (traced and plain):
        return {}
    p50_traced, p50_plain = statistics.median(traced), statistics.median(plain)
    return {"trace.step_ms_p50_traced": (p50_traced, "ms"),
            "trace.step_ms_p50_untraced": (p50_plain, "ms"),
            "trace.overhead_pct": (100.0 * (p50_traced / p50_plain - 1.0),
                                   "%")}


def _setup(wl, args, workdir, setup_tracer):
    """Set up ``SETUP_REPS`` times; return the last state, the median
    set-up time at the reference host speed and the median as timed."""
    import hostspeed

    host = hostspeed.HostClock()
    scaled, timed = [], []
    for _ in range(SETUP_REPS):
        before = host.sample(SETUP_REF_REPS)
        t0 = time.perf_counter()
        if setup_tracer is not None:
            with setup_tracer.installed():
                state = wl.setup(args.seed, workdir)
        else:
            state = wl.setup(args.seed, workdir)
        elapsed = time.perf_counter() - t0
        ref = (before + host.sample(SETUP_REF_REPS)) / 2
        timed.append(elapsed)
        scaled.append(elapsed * hostspeed.REF_MS / ref)
    return state, statistics.median(scaled), statistics.median(timed)


def run_workload(name: str, args, contract: dict) -> dict:
    import hostspeed
    import tracing
    import workloads

    wl = workloads.WORKLOADS[name](smoke=args.smoke)
    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    traced = args.trace == 1
    setup_tracer = tracing.Tracer()
    try:
        state, setup_s, raw_setup_s = _setup(
            wl, args, workdir, setup_tracer if traced else None)
        metrics = {"setup_s": (setup_s, "s"),
                   "raw.setup_s": (raw_setup_s, "s")}
        if not traced:
            run = wl.run(state, args.seconds)
            wl.verify(state, run)
            metrics.update(run.end_to_end())
            metrics["peak_alloc_mb"] = (wl.peak_pass(state), "MB")
            wanted = contract["end_to_end"]
            spans_file = None
        else:
            tracer = tracing.Tracer()
            run = wl.run(state, args.seconds, tracer)
            wl.verify(state, run)
            for prefix, (equal, compared) in \
                    tracer.check_recomposition().items():
                run.check(f"{prefix}.recomposed_equals_route",
                          equal == compared,
                          f"{equal} of the first {compared} traced calls "
                          f"equal route(), bit for bit")
            layer, inexact = tracing.layer_metrics(
                tracer.summarize(("classifier.evaluate",)),
                steps=max(sum(run.traced), 1))
            run.check("counts_repeat_within_run", not inexact,
                      "varying: " + ", ".join(inexact) if inexact
                      else "every exact counter equal across calls")
            metrics.update((k, v) for k, v in run.end_to_end().items()
                           if k in ("error_rate", "val_accuracy"))
            metrics.update(layer)
            metrics.update(tracing.setup_metrics(setup_tracer.summarize()))
            metrics.update(_overhead(run))
            wanted = contract["per_layer"]
            spans_file = OUT / f"{name}-seed{args.seed}.spans.csv.gz"
            n_spans = tracer.write(spans_file)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    selected = {}
    for entry in wanted:
        if entry["name"] in metrics:
            value, unit = metrics[entry["name"]]
            selected[entry["name"]] = {"value": value, "unit": unit}
    correct = (all(ok for _, ok, _ in run.checks)
               and len(selected) == len(wanted))
    report = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "steps": len(run.step_ms), "step": wl.describe(),
        "setup_reps": SETUP_REPS, "ref_ms": hostspeed.REF_MS,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "checks": [{"name": n, "ok": ok, "detail": d}
                   for n, ok, d in run.checks],
        "step_ms": run.step_ms, "host_ref_ms": run.ref_ms,
        "notes": list(TRACE_NOTES) if traced else [],
        "result": {"correct": correct, "attempted": run.attempted,
                   "failed": run.failed, "metrics": selected},
    }
    if spans_file is not None:
        report["spans"] = {"file": str(spans_file.relative_to(ROOT)),
                           "count": n_spans}
    _print_report(report)
    return report


def _print_report(report: dict) -> None:
    name = report["workload"]
    print(f"== {name}  seed={report['seed']}  trace={report['trace']}  "
          f"{report['step']}; {report['steps']} steps measured; setup_s is "
          f"the median of {report['setup_reps']} set-ups; times are scaled "
          f"to a host where the reference kernel takes "
          f"{report['ref_ms']:g} ms (host.ref_ms: as timed here), raw.* "
          f"are as timed")
    for metric, entry in report["metrics"].items():
        print(f"{name}.{metric:<34} {_fmt(entry['value']):>14} "
              f"{entry['unit']}")
    for check in report["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"check {status} {name}.{check['name']}: {check['detail']}")
    for note in report["notes"]:
        print(f"note  {note}")
    if "spans" in report:
        print(f"spans {report['spans']['count']} written to "
              f"{report['spans']['file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload to a few steps (for "
                        "the self-test; desk_train then cannot reach its "
                        "accuracy bar)")
    args = parser.parse_args(argv)

    nproc = len(os.sched_getaffinity(0))
    _cap_blas_threads(nproc)
    src = ROOT / "src"
    contract_path = ROOT / "BENCHMARK.json"
    if not (src / "capsem" / "__init__.py").is_file():
        print(f"error: no capsem package under {src}; run from a full "
              f"checkout", file=sys.stderr)
        return 2
    if not contract_path.is_file():
        print(f"error: {contract_path} is missing", file=sys.stderr)
        return 2
    contract = json.loads(contract_path.read_text())
    sys.path.insert(0, str(src))
    import capsem

    if Path(capsem.__file__).resolve().parent != (src / "capsem").resolve():
        print(f"error: imported capsem from {capsem.__file__}, not {src}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    env = environment(args.seed, nproc)
    print("env " + json.dumps(env))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args, contract) for name in names]
    stem = "all" if len(names) > 1 else names[0]
    with open(OUT / f"{stem}-seed{args.seed}-trace{args.trace}.json",
              "w") as f:
        json.dump({"env": env, "reports": reports}, f, indent=1)

    results = [r["result"] for r in reports]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{rep['workload']}.{k}": v for rep in reports
                        for k, v in rep["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
