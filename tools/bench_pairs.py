"""Run the benchmark on two trees in alternating pairs and summarize.

    python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE 10 \
        --out BENCH_23.json --seed 700 --claim desk_train.samples_per_s

Each run is one process, ``perfbench/run.py --workload <w> --seed <s>
--seconds <t>`` started in its own tree, so each side imports its own
``src/``. The workloads and the run length ``t`` are those of the change
tree's ``BENCHMARK.json``. Pair k of a workload uses seed ``--seed + k`` on
both sides; even pairs run the parent first, odd pairs the change. The
last line of each run's output is kept as its result. The output file
(rewritten after every pair, so an interrupted series keeps what it ran)
has the schema of the repository's ``BENCH_*.json`` files: a ``summary``
per workload and end-to-end metric of ``BENCHMARK.json``, and every run
under ``pairs``. Each run entry also keeps the process's minor page
faults and peak resident set size, from ``os.wait4``, and the summary
gives their medians per side, which no rule below gates.

For each metric the report gives the parent's quartiles, the change's
median and the pairs the change won (ties count for neither side). A gain
counts when the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than the parent's interquartile
range; a metric regresses when the change's median is worse than the
parent's by more than the metric's bound, a fraction of the parent median.
Where the parent's interquartile range is wider than that bound, the metric
is unresolved, unless every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# per-run process counters from os.wait4: minor page faults, and the peak
# resident set size in KiB (Linux's unit for ru_maxrss)
USAGE = ("ru_minflt", "ru_maxrss")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``tree``: its last output line
    as ``result``, and its :data:`USAGE` counters."""
    with tempfile.TemporaryFile("w+") as out, \
            tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=tree, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            err.seek(0)
            sys.stderr.write(err.read())
            raise SystemExit(f"{tree}: {workload} seed {seed} gave no "
                             f"result line (exit {proc.returncode})") from None
    return dict(result=result, **{key: getattr(usage, key) for key in USAGE})


def quartiles(values: list[float]) -> list[float]:
    """q1, median and q3, as ``statistics.quantiles`` cuts them."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4)


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per ``workload.metric``: its direction and bound, the parent's
    quartiles, the change's median and the pairs the change won; per
    ``workload.counter`` of :data:`USAGE`, each side's median."""
    summary = {}
    workloads = list(dict.fromkeys(r["workload"] for r in runs))
    for workload in workloads:
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = {k: v for k, v in pairs.items() if len(v) == 2}
        for metric in end_to_end:
            name = metric["name"]
            sign = 1.0 if metric["better"] == "higher" else -1.0
            values = {side: [p[side]["result"]["metrics"][name]["value"]
                             for p in pairs.values()]
                      for side in ("parent", "change")}
            if not values["parent"]:
                continue
            won = sum(sign * (c - p) > 0 for p, c in
                      zip(values["parent"], values["change"]))
            worst_change = min(sign * c for c in values["change"])
            summary[f"{workload}.{name}"] = {
                "better": metric["better"], "bound": metric["bound"],
                "parent_q1_median_q3": quartiles(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "change_won_pairs": won,
                "change_beats_every_parent_run": all(
                    worst_change > sign * p for p in values["parent"]),
            }
        for key in USAGE:
            if pairs and all(key in r for p in pairs.values()
                             for r in p.values()):
                summary[f"{workload}.{key}"] = {
                    f"{side}_median": statistics.median(
                        p[side][key] for p in pairs.values())
                    for side in ("parent", "change")}
    return summary


def verdict(entry: dict, n_pairs: int) -> dict:
    """The gain and regression rules for one summary entry; ``bound`` is
    "within", "exceeded" or "unresolved"."""
    q1, median, q3 = entry["parent_q1_median_q3"]
    sign = 1.0 if entry["better"] == "higher" else -1.0
    gap = sign * (entry["change_median"] - median)
    allowed = entry["bound"] * abs(median)
    if q3 - q1 > allowed and not entry["change_beats_every_parent_run"]:
        bound = "unresolved"
    else:
        bound = "within" if -gap <= allowed else "exceeded"
    return {
        "wins_nine_tenths": entry["change_won_pairs"] >= 0.9 * n_pairs,
        "gap_beyond_iqr": gap > q3 - q1,
        "bound": bound,
    }


def failed_share(runs: list[dict], workload: str, side: str) -> float:
    attempted = sum(r["result"]["attempted"] for r in runs
                    if r["workload"] == workload and r["side"] == side)
    failed = sum(r["result"]["failed"] for r in runs
                 if r["workload"] == workload and r["side"] == side)
    return failed / attempted if attempted else 0.0


def report(doc: dict, n_pairs: int, claim: str | None) -> bool:
    """Print every summary entry with its verdict; True unless a metric
    regressed or is unresolved, a run's checks failed, or the claim was
    not met."""
    ok = True
    for name, entry in doc["summary"].items():
        if "bound" not in entry:  # a USAGE counter
            print(f"{name:<28} parent {entry['parent_median']:.4g}  change "
                  f"{entry['change_median']:.4g}")
            continue
        v = verdict(entry, n_pairs)
        q1, median, q3 = entry["parent_q1_median_q3"]
        flags = {"within": [], "exceeded": ["REGRESSED"],
                 "unresolved": ["UNRESOLVED"]}[v["bound"]]
        if name == claim:
            met = v["wins_nine_tenths"] and v["gap_beyond_iqr"]
            flags.append("claim met" if met else "CLAIM NOT MET")
            ok &= met
        ok &= v["bound"] == "within"
        print(f"{name:<28} parent {q1:.4g}/{median:.4g}/{q3:.4g}  change "
              f"{entry['change_median']:.4g}  won {entry['change_won_pairs']}"
              f"/{n_pairs}  {' '.join(flags)}")
    for workload in dict.fromkeys(r["workload"] for r in doc["pairs"]):
        shares = [failed_share(doc["pairs"], workload, side)
                  for side in ("parent", "change")]
        incorrect = [r for r in doc["pairs"] if r["workload"] == workload
                     and not r["result"]["correct"]]
        print(f"{workload:<28} failed share parent {shares[0]:.3g} change "
              f"{shares[1]:.3g}, runs with failed checks {len(incorrect)}")
        ok &= shares[1] <= shares[0] and not incorrect
    return ok


def _commit(tree: Path) -> str:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("pairs", type=int)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--claim", help="workload.metric whose gain is "
                        "claimed, e.g. desk_train.samples_per_s")
    parser.add_argument("--change-text", default="",
                        help="what the change does, for the output file")
    parser.add_argument("--note", default="",
                        help="what else a reader of the output file should know")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("pairs must be at least 1")
    contract = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"]
    doc = {
        "what": "perfbench/run.py, one workload per process, parent "
                f"commit versus this change, {args.pairs} pairs per "
                "workload alternating which side runs first",
        "command": "python3 perfbench/run.py --workload <name> --seed "
                   f"<seed> --seconds {seconds:g}",
        "parent_commit": _commit(args.parent),
        "change": args.change_text + f"; seeds {args.seed}-"
                  f"{args.seed + args.pairs - 1} for each workload, odd "
                  "pairs run the change first",
        "host": f"{os.cpu_count()}-CPU {platform.machine()} "
                f"{platform.system()}; each side run from its own copy of "
                "the tree",
        "claimed": args.claim,
        "note": args.note,
        "summary": {},
        "pairs": [],
    }
    trees = {"parent": args.parent, "change": args.change}
    for workload in [w["name"] for w in contract["workloads"]]:
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else \
                ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, args.seed + k, seconds)
                doc["pairs"].append(dict(workload=workload, pair=k,
                                         side=side, **run))
            doc["summary"] = summarize(doc["pairs"], contract["end_to_end"])
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if report(doc, args.pairs, args.claim) else 1


if __name__ == "__main__":
    sys.exit(main())
