import importlib.util
import mmap
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "samples_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
]


def _run(workload, pair, side, rate, step_ms, faults=100, rss_kb=50_000):
    metrics = {"samples_per_s": {"value": rate, "unit": "1/s"},
               "step_ms_p50": {"value": step_ms, "unit": "ms"}}
    return dict(workload=workload, pair=pair, side=side,
                result=dict(correct=True, attempted=10, failed=0,
                            metrics=metrics),
                ru_minflt=faults, ru_maxrss=rss_kb)


def _runs(parent, change, step_ms=(10.0, 10.0)):
    runs = []
    for k, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("w", k, "parent", p, step_ms[0]),
                 _run("w", k, "change", c, step_ms[1])]
    return runs


def test_summary_counts_wins_and_takes_the_parents_quartiles():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0,
              99.0]
    change = [110.0] * 9 + [90.0]
    summary = bench_pairs.summarize(
        _runs(parent, change, step_ms=(10.0, 9.0)), END_TO_END)
    rate = summary["w.samples_per_s"]
    assert rate["parent_q1_median_q3"] == pytest.approx([98.75, 100.0,
                                                        101.25])
    assert rate["change_median"] == 110.0
    assert rate["change_won_pairs"] == 9
    assert rate["change_beats_every_parent_run"] is False
    assert bench_pairs.verdict(rate, 10) == dict(
        wins_nine_tenths=True, gap_beyond_iqr=True, bound="within")
    # lower is better for a time, and equal values are ties
    step = summary["w.step_ms_p50"]
    assert step["change_won_pairs"] == 10
    assert step["better"] == "lower" and step["bound"] == 0.2


def test_verdict_rules():
    def entry(change_median, won, better="higher", q1_q3=(90.0, 110.0),
              beats_all=False):
        return {"better": better, "bound": 0.2, "change_won_pairs": won,
                "parent_q1_median_q3": [q1_q3[0], 100.0, q1_q3[1]],
                "change_median": change_median,
                "change_beats_every_parent_run": beats_all}

    # 8 of 10 wins, or a gap inside the parent's spread, is no gain
    assert not bench_pairs.verdict(entry(130.0, 8), 10)["wins_nine_tenths"]
    assert not bench_pairs.verdict(entry(115.0, 10), 10)["gap_beyond_iqr"]
    assert bench_pairs.verdict(entry(125.0, 9), 10)["gap_beyond_iqr"]
    # worse by more than the bound, a fraction of the parent median
    assert bench_pairs.verdict(entry(81.0, 0), 10)["bound"] == "within"
    assert bench_pairs.verdict(entry(79.0, 0), 10)["bound"] == "exceeded"
    assert bench_pairs.verdict(entry(121.0, 0, "lower"),
                               10)["bound"] == "exceeded"
    # a parent spread wider than the bound cannot tell, unless every
    # change run beats every parent run
    wide = (80.0, 125.0)
    assert bench_pairs.verdict(entry(101.0, 6, q1_q3=wide),
                               10)["bound"] == "unresolved"
    assert bench_pairs.verdict(entry(130.0, 10, q1_q3=wide, beats_all=True),
                               10)["bound"] == "within"


def test_summary_marks_a_change_that_beats_every_parent_run():
    rate = bench_pairs.summarize(_runs([100.0, 104.0, 99.0],
                                       [105.0, 106.0, 110.0]),
                                 END_TO_END)["w.samples_per_s"]
    assert rate["change_beats_every_parent_run"] is True
    step = bench_pairs.summarize(_runs([1.0], [2.0], step_ms=(10.0, 9.0)),
                                 END_TO_END)["w.step_ms_p50"]
    assert step["change_beats_every_parent_run"] is True


def test_summary_skips_an_unfinished_pair():
    runs = _runs([100.0, 101.0], [110.0, 111.0])
    runs.append(_run("w", 2, "parent", 50.0, 10.0))
    rate = bench_pairs.summarize(runs, END_TO_END)["w.samples_per_s"]
    assert rate["parent_q1_median_q3"][1] == 100.5
    assert rate["change_won_pairs"] == 2


def test_summary_gives_each_sides_median_faults_and_rss_ungated(capsys):
    runs = []
    for k, (p, c) in enumerate([(900, 10), (1000, 30), (1100, 20)]):
        runs += [_run("w", k, "parent", 100.0, 10.0, faults=p,
                      rss_kb=1000 + k),
                 _run("w", k, "change", 100.0, 10.0, faults=c,
                      rss_kb=2000 + k)]
    runs.append(_run("w", 3, "parent", 100.0, 10.0, faults=5))  # unpaired
    summary = bench_pairs.summarize(runs, END_TO_END)
    assert summary["w.ru_minflt"] == {"parent_median": 1000,
                                      "change_median": 20}
    assert summary["w.ru_maxrss"] == {"parent_median": 1001,
                                      "change_median": 2001}
    # a counter takes no verdict: the report passes on the metrics alone
    doc = {"summary": summary, "pairs": runs}
    assert bench_pairs.report(doc, 3, None)
    assert "w.ru_minflt" in capsys.readouterr().out


def test_run_once_records_the_childs_faults_and_rss(tmp_path):
    # a stand-in perfbench/run.py that touches 8 MiB and prints a result
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, mmap, sys\n"
        "buf = bytearray(8 << 20)\n"
        "buf[::mmap.PAGESIZE] = b'x' * len(buf[::mmap.PAGESIZE])\n"
        "print('noise')\n"
        "print(json.dumps({'argv': sys.argv[1:]}))\n")
    run = bench_pairs.run_once(tmp_path, "w", 7, 2)
    assert run["result"] == {"argv": ["--workload", "w", "--seed", "7",
                                      "--seconds", "2"]}
    assert run["ru_minflt"] >= (8 << 20) // mmap.PAGESIZE  # a page each
    assert run["ru_maxrss"] >= 8 << 10


def test_run_once_stops_on_a_run_without_a_result_line(tmp_path, capsys):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nsys.stderr.write('broken')\nsys.exit(3)\n")
    with pytest.raises(SystemExit, match="exit 3"):
        bench_pairs.run_once(tmp_path, "w", 7, 2)
    assert "broken" in capsys.readouterr().err
