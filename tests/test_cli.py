import csv
import json
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from capsem.classifier import build_constellation_classifier
from capsem.cli import main
from capsem.data import (ConstellationSpec, make_dataset, read_capsules,
                         write_model)


def run_cli(*argv, capsys=None):
    return main(list(argv))


@pytest.fixture
def toy_files(tmp_path):
    """A small generated dataset plus a quickly trained model."""
    data = tmp_path / "toy.caps"
    model = tmp_path / "toy.model"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"train": {"train_samples": 300, "test_samples": 100}}))
    assert main(["gen-data", "--out", str(data), "--n", "40",
                 "--seed", "7"]) == 0
    assert main(["train", "--out", str(model), "--epochs", "2", "--seed", "0",
                 "--config", str(config)]) == 0
    return data, model, config


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_round_trips(tmp_path, capsys):
    out = tmp_path / "d.caps"
    assert main(["gen-data", "--out", str(out), "--n", "100",
                 "--seed", "7"]) == 0
    batch, labels = read_capsules(out)
    assert len(labels) == 100
    assert np.asarray(batch.poses).shape[0] == 100
    text = capsys.readouterr().out
    assert "100 samples" in text


def test_gen_data_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.caps"
    b = tmp_path / "b.caps"
    assert main(["gen-data", "--out", str(a), "--n", "25", "--seed", "3"]) == 0
    assert main(["gen-data", "--out", str(b), "--n", "25", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def _assert_file_holds(path, spec, n, start):
    batch, labels = read_capsules(path)
    want, want_labels = make_dataset(spec, n, start=start)
    np.testing.assert_array_equal(labels, want_labels)
    np.testing.assert_array_equal(batch.scores, want.scores)
    np.testing.assert_array_equal(batch.poses, want.poses)


def test_gen_data_seed_picks_samples_of_the_default_task(tmp_path):
    out = tmp_path / "d.caps"
    assert main(["gen-data", "--out", str(out), "--n", "5",
                 "--seed", "7"]) == 0
    _assert_file_holds(out, ConstellationSpec(), 5, start=70_000)


def test_gen_data_seed_keeps_the_spec_seed(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 3}))
    out = tmp_path / "d.caps"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out),
                 "--n", "5", "--seed", "7"]) == 0
    _assert_file_holds(out, ConstellationSpec(seed=3), 5, start=70_000)


def test_gen_data_empty_file_is_valid(tmp_path):
    out = tmp_path / "empty.caps"
    assert main(["gen-data", "--out", str(out), "--n", "0", "--seed", "1"]) == 0
    batch, labels = read_capsules(out)
    assert len(labels) == 0


def test_gen_data_empty_json_file_exits_2(tmp_path, capsys):
    # a caps-json batch of zero samples would not read back
    out = tmp_path / "empty.json"
    assert main(["gen-data", "--out", str(out), "--n", "0"]) == 2
    assert "zero samples" in capsys.readouterr().err
    assert not out.exists()


def test_gen_data_malformed_spec_exits_2(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_classes": 5, "bogus_knob": 3}))
    out = tmp_path / "d.caps"
    assert main(["gen-data", "--spec", str(spec), "--out", str(out),
                 "--n", "5"]) == 2


@pytest.mark.parametrize("doc", ["5", '{"n_classes": "5"}'],
                         ids=["not_an_object", "string_count"])
def test_gen_data_mistyped_spec_exits_2(tmp_path, capsys, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(doc)
    assert main(["gen-data", "--spec", str(spec),
                 "--out", str(tmp_path / "d.caps"), "--n", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section,key,value", [
    ("task", "n_classes", "5"),
    ("train", "epochs", "2"),
    ("train", "mixup", 1),
    ("train", "mixup_alpha", [0.2]),
    ("train", "warm_frac", 1.5),
    ("train", "train_samples", "100"),
    ("train", "threads", 2),
])
def test_train_mistyped_config_exits_2(tmp_path, capsys, section, key, value):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({section: {key: value}}))
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "m.model")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key}")


# ---------------------------------------------------------------------------
# train


def test_train_epoch0_deterministic(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"train": {"train_samples": 100, "test_samples": 50}}))

    def epoch0():
        assert main(["train", "--out", str(tmp_path / "m.model"),
                     "--epochs", "1", "--seed", "5",
                     "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [l for l in lines if l.startswith("0,")][0]

    assert epoch0() == epoch0()


def test_train_no_mixup_flag(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"train": {"train_samples": 100, "test_samples": 50}}))
    assert main(["train", "--out", str(tmp_path / "m.model"), "--epochs", "1",
                 "--seed", "5", "--config", str(config), "--no-mixup"]) == 0
    assert "model written" in capsys.readouterr().out


def test_train_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"train": {"learning_rate": 1.0}}))
    assert main(["train", "--out", str(tmp_path / "m.model"),
                 "--config", str(config)]) == 2


def test_train_beta1_of_one_exits_2(tmp_path, capsys):
    # beta1 = 1 would make RAdam's first bias correction 1 - beta1 = 0
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"train": {"beta1_start": 1.0, "train_samples": 200}}))
    assert main(["train", "--out", str(tmp_path / "m.model"),
                 "--config", str(config)]) == 2
    assert "beta1_start" in capsys.readouterr().err
    assert not (tmp_path / "m.model").exists()


def test_train_non_utf8_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xff\xfe{}")
    assert main(["train", "--config", str(config),
                 "--out", str(tmp_path / "m.caps")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_train_writes_log_csv(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"train": {"train_samples": 100, "test_samples": 50}}))
    log = tmp_path / "log.csv"
    assert main(["train", "--out", str(tmp_path / "m.model"), "--epochs", "2",
                 "--seed", "0", "--config", str(config),
                 "--log", str(log)]) == 0
    rows = log.read_text().splitlines()
    assert rows[0] == "epoch,val_loss,val_accuracy"
    assert len(rows) == 4  # header + epochs 0..2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_nonfinite_loss_exits_3(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({
        "train": {"train_samples": 60, "test_samples": 20,
                  "lr_start": 1e200, "lr_peak": 1e200},
    }))
    assert main(["train", "--out", str(tmp_path / "m.model"), "--epochs", "2",
                 "--seed", "0", "--config", str(config)]) == 3


def test_train_threads_flag_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", str(tmp_path / "m.model"), "--threads", "2"])
    assert exc.value.code == 1


@pytest.mark.parametrize("case,message", [
    ("empty_train", "holds no samples"),
    ("empty_val", "v.caps holds no samples"),
    ("val_label_too_large", "but the training labels name"),
    ("negative_json_label", "non-negative integers"),
], ids=["empty_train", "empty_val", "val_label_too_large",
        "negative_json_label"])
def test_train_capsfile_rejects_bad_labels(tmp_path, capsys, case, message):
    from capsem.data import ConstellationSpec, make_dataset, write_capsules
    spec = ConstellationSpec()
    json_train = case == "negative_json_label"
    train = tmp_path / ("t.json" if json_train else "t.caps")
    n_train = 0 if case == "empty_train" else 10
    write_capsules(train, *make_dataset(spec, n_train))
    if json_train:
        doc = json.loads(train.read_text())
        doc["labels"][0] = -1
        train.write_text(json.dumps(doc))
    val = tmp_path / "v.caps"
    batch, labels = make_dataset(spec, 0 if case == "empty_val" else 4,
                                 start=10)
    write_capsules(val, batch, labels + 5 * (case == "val_label_too_large"))
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"data": {"train": str(train), "val": str(val)}}))
    assert main(["train", "--task", "capsfile", "--config", str(config),
                 "--out", str(tmp_path / "m.model")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# route


def test_route_prints_probabilities_and_accuracy(toy_files, capsys):
    data, model, _ = toy_files
    capsys.readouterr()
    assert main(["route", "--model", str(model), "--input", str(data)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "sample,p0,p1,p2,p3,p4"
    probs = np.array([[float(x) for x in l.split(",")[1:]]
                      for l in lines[1:41]])
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-4)
    assert lines[41].startswith("accuracy,")


def test_route_accuracy_matches_train_report(tmp_path, capsys):
    # train, then route the validation file: accuracies must agree
    config = tmp_path / "c.json"
    config.write_text(json.dumps(
        {"train": {"train_samples": 300, "test_samples": 100}}))
    model = tmp_path / "m.model"
    assert main(["train", "--out", str(model), "--epochs", "3", "--seed", "1",
                 "--config", str(config)]) == 0
    train_out = capsys.readouterr().out.splitlines()
    final_acc = float([l for l in train_out
                       if l and l[0].isdigit()][-1].split(",")[2])

    val = tmp_path / "val.caps"
    from capsem.data import ConstellationSpec, make_dataset, write_capsules
    batch, labels = make_dataset(ConstellationSpec(), 100, start=300)
    write_capsules(val, batch, labels)
    assert main(["route", "--model", str(model), "--input", str(val)]) == 0
    route_out = capsys.readouterr().out.splitlines()
    acc = float([l for l in route_out
                 if l.startswith("accuracy,")][0].split(",")[1])
    assert acc == pytest.approx(final_acc, abs=1e-9)


def test_route_iters_flag_matches_library(toy_files, capsys):
    data, model, _ = toy_files
    from capsem.classifier import CapsuleClassifier
    from capsem.data import read_model
    layers, n_classes = read_model(model)
    lib = CapsuleClassifier([(params, replace(config, n_iters=1))
                             for params, config in layers], n_classes)
    caps, _ = read_capsules(data)
    expected = lib.predict_proba(caps)

    capsys.readouterr()
    assert main(["route", "--model", str(model), "--input", str(data),
                 "--iters", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = np.array([[float(x) for x in l.split(",")[1:]]
                    for l in lines[1:41]])
    np.testing.assert_allclose(got, expected[:40], atol=1e-6)


def test_route_trace_rows_sum_to_one(toy_files, tmp_path, capsys):
    data, model, _ = toy_files
    trace = tmp_path / "trace.json"
    assert main(["route", "--model", str(model), "--input", str(data),
                 "--trace", str(trace)]) == 0
    doc = json.loads(trace.read_text())
    assert len(doc["layers"]) == 2
    for layer in doc["layers"]:
        for it in layer["iterations"]:
            probs = np.array(it["probs"])
            np.testing.assert_allclose(probs.sum(axis=2), 1.0, atol=1e-6)


def test_route_dim_mismatch_exits_2(toy_files, tmp_path, capsys):
    _, model, _ = toy_files
    from capsem.data import write_capsules
    from capsem.routing import CapsuleBatch
    bad = tmp_path / "bad.caps"
    write_capsules(bad, CapsuleBatch(np.zeros((2, 3)), np.zeros((2, 3, 2, 2))))
    assert main(["route", "--model", str(model), "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "(2, 2)" in err and "(4, 4)" in err  # found vs expected dims


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_route_nonfinite_routing_exits_3(tmp_path, capsys):
    # the file is valid and finite, but one pose entry overflows once
    # squared: a failed numeric check, as in train, not a data error
    from capsem.data import write_capsules
    from capsem.routing import CapsuleBatch
    model = tmp_path / "m.model"
    write_model(model, build_constellation_classifier(4, 4, 3).layers, 3)
    caps, labels = make_dataset(ConstellationSpec(), 5)
    poses = np.array(caps.poses)
    poses[2, 1, 0, 0] = 1e200
    bad = tmp_path / "big.caps"
    write_capsules(bad, CapsuleBatch(caps.scores, poses), labels)
    capsys.readouterr()
    assert main(["route", "--model", str(model), "--input", str(bad),
                 "--trace", str(tmp_path / "t.json")]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: ") and "non-finite" in err


@pytest.mark.filterwarnings("error")
def test_route_empty_file_prints_only_header(tmp_path, capsys):
    from capsem.classifier import build_constellation_classifier
    from capsem.data import write_model
    model = tmp_path / "m.caps"
    write_model(model, build_constellation_classifier(4, 4, 3).layers, 3)
    empty = tmp_path / "empty.caps"
    assert main(["gen-data", "--out", str(empty), "--n", "0"]) == 0
    capsys.readouterr()
    assert main(["route", "--model", str(model), "--input", str(empty)]) == 0
    assert capsys.readouterr().out.splitlines() == ["sample,p0,p1,p2"]


def test_route_rows_print_six_places_at_the_edges(tmp_path, capsys,
                                                  monkeypatch):
    # values at 0, 1 and the rounding midpoints print as an f-string per
    # value would print them
    from capsem.classifier import CapsuleClassifier
    from capsem.data import write_capsules
    probs = np.array([[0.0, 1.0, 5e-7], [0.9999995, 1.5e-6, 2.5e-6],
                      [1e-300, 0.1234565, 0.5]])
    monkeypatch.setattr(CapsuleClassifier, "predict_proba",
                        lambda self, caps: probs)
    model, data = tmp_path / "m.model", tmp_path / "d.caps"
    write_model(model, build_constellation_classifier(4, 4, 3).layers, 3)
    write_capsules(data, *make_dataset(ConstellationSpec(n_classes=3), 3))
    capsys.readouterr()
    assert main(["route", "--model", str(model), "--input", str(data)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:4]
    assert rows == ["0,0.000000,1.000000,0.000000",
                    "1,1.000000,0.000002,0.000003",
                    "2,0.000000,0.123456,0.500000"]
    assert rows == [f"{i}," + ",".join(f"{p:.6f}" for p in row)
                    for i, row in enumerate(probs)]


def test_cli_import_path_leaves_out_scipy_optimize(tmp_path):
    # only the nearest-template oracle needs scipy.optimize; neither
    # importing the CLI nor routing a file may import it
    from capsem.data import write_capsules
    model, data = tmp_path / "m.model", tmp_path / "d.caps"
    write_model(model, build_constellation_classifier(4, 4, 5).layers, 5)
    write_capsules(data, *make_dataset(ConstellationSpec(), 3))
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys, capsem.cli\n"
        "assert 'scipy.optimize' not in sys.modules, 'import'\n"
        f"assert capsem.cli.main(['route', '--model', {str(model)!r}, "
        f"'--input', {str(data)!r}]) == 0\n"
        "assert 'scipy.optimize' not in sys.modules, 'route'\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=120,
                            env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("sample,p0,")


@pytest.mark.parametrize("text", [
    '{"format": "caps-json", "version": 1, "kind": "capsule_batch", "sco',
    '[1, 2]',
    '{"format": "caps-json", "version": 1, "kind": "capsule_batch", '
    '"scores": [[0.5]]}',
    '{"format": "caps-json", "version": 1, "kind": "capsule_batch", '
    '"scores": "x", "poses": [[[[1.0, 2.0]]]]}',
    '[' * 100_000 + ']' * 100_000,
    '{"format": "caps-json", "version": 1, "kind": "capsule_batch", '
    '"scores": [[NaN]], "poses": [[[[1.0]]]]}',
], ids=["truncated", "top_level_list", "no_poses", "string_scores",
        "deeply_nested", "nan_score"])
def test_route_rejects_malformed_caps_json(tmp_path, capsys, text):
    from capsem.classifier import build_constellation_classifier
    from capsem.data import write_model
    model = tmp_path / "m.caps"
    write_model(model, build_constellation_classifier(4, 4, 3).layers, 3)
    bad = tmp_path / "x.json"
    bad.write_text(text)
    assert main(["route", "--model", str(model), "--input", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# gradcheck / bench / inspect


def test_gradcheck_passes_at_default_tolerance(capsys):
    assert main(["gradcheck", "--seed", "0", "--tol", "1e-4"]) == 0
    assert "gradcheck passed" in capsys.readouterr().out


def test_gradcheck_fails_with_absurd_tolerance(capsys):
    assert main(["gradcheck", "--seed", "0", "--tol", "1e-18"]) == 3


def test_gradcheck_fails_on_nan_error(monkeypatch, capsys):
    from capsem import cli
    real_grad_check = cli.grad_check
    calls = []

    def nan_on_first_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            return float("nan")
        return real_grad_check(*args, **kwargs)

    monkeypatch.setattr(cli, "grad_check", nan_on_first_call)
    assert main(["gradcheck", "--seed", "0", "--tol", "1e-4"]) == 3
    assert "nan" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_gradcheck_rejects_bad_tolerance(capsys, tol):
    assert main(["gradcheck", "--tol", tol]) == 2
    assert capsys.readouterr().err.startswith("error: --tol")


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--grid", "n_in=2,4;n_out=2;variant=fixed",
                 "--reps", "1", "--csv", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    for row in rows:
        assert row["variant"] == "fixed"
        assert int(row["ns_per_sample_forward"]) > 0
        assert int(row["ns_per_sample_backward"]) > 0


def test_bench_rejects_unknown_grid_key(tmp_path):
    assert main(["bench", "--grid", "bogus=1", "--csv",
                 str(tmp_path / "b.csv")]) == 2


def test_bench_rejects_unknown_variant_before_timing(tmp_path, capsys,
                                                     monkeypatch):
    def no_timing(*args, **kwargs):
        raise AssertionError("bench timed a row before checking the grid")

    monkeypatch.setattr("capsem.cli.route", no_timing)
    out = tmp_path / "b.csv"
    assert main(["bench", "--grid", "n_in=2;n_out=2;variant=fixed,bogus",
                 "--reps", "1", "--csv", str(out)]) == 2
    assert "'bogus'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,bad", [
    (["bench", "--reps", "0"], "0"),
    (["bench", "--grid", "n_in=abc"], "'abc'"),
    (["bench", "--grid", "n_in="], "'n_in'"),
    (["gen-data", "--n", "-5"], "-5"),
    (["bench", "--grid", "n_in=2;n_in=4"], "'n_in' is given twice"),
    (["gen-data", "--n", "5", "--seed", "-1"], "seed must be"),
], ids=["bench_zero_reps", "bench_non_int_grid", "bench_empty_grid",
        "gen_data_negative_n", "bench_repeated_grid_key",
        "gen_data_negative_seed"])
def test_bad_counts_exit_2(tmp_path, capsys, argv, bad):
    out = tmp_path / "out"
    where = ["--csv" if argv[0] == "bench" else "--out", str(out)]
    assert main(argv + where) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen-data", "--n", "5", "--out", "OUT"],
    ["train", "--epochs", "1", "--out", "OUT"],
    ["gradcheck"],
    ["bench", "--grid", "n_in=2;n_out=2", "--reps", "1", "--csv", "OUT"],
], ids=["gen_data", "train", "gradcheck", "bench"])
def test_negative_seed_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    argv = [str(out) if a == "OUT" else a for a in argv]
    assert main(argv + ["--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be an int >= 0\n"
    assert not out.exists()


def test_inspect_reports_sharing_factors(toy_files, capsys):
    _, model, _ = toy_files
    capsys.readouterr()
    assert main(["inspect", "--model", str(model)]) == 0
    out = capsys.readouterr().out
    assert "mode=variable_input" in out
    assert "mode=fixed" in out
    assert "factor=32 (= n_in)" in out
    assert "weight_factor=160 (= n_in*n_out)" in out


def test_inspect_rejects_oversized_model_dims(tmp_path, capsys):
    # kind-3 model, one fixed layer whose dims all read 2**32 - 1
    huge = 2 ** 32 - 1
    path = tmp_path / "huge.caps"
    path.write_bytes(b"CAPS" + struct.pack("<HBB", 1, 3, 1)
                     + struct.pack("<II", 1, 2)
                     + struct.pack("<BB5I I dd", 0, 0, huge, huge, huge,
                                   huge, huge, 3, 1e-8, 1e-12))
    assert main(["inspect", "--model", str(path)]) == 2
    assert "truncated payload" in capsys.readouterr().err


def test_usage_error_exits_1():
    result = subprocess.run(
        [sys.executable, "-m", "capsem", "route", "--model"],
        capture_output=True)
    assert result.returncode == 1


def test_missing_file_exits_2(tmp_path):
    assert main(["route", "--model", str(tmp_path / "nope.model"),
                 "--input", str(tmp_path / "nope.caps")]) == 2


@pytest.mark.parametrize("argv", [
    ["route", "--model", "DIR", "--input", "DATA"],
    ["route", "--model", "MODEL", "--input", "DIR"],
    ["inspect", "--model", "DIR"],
    ["gen-data", "--n", "5", "--out", "DIR"],
    ["gen-data", "--n", "5", "--spec", "DIR", "--out", "OUT"],
    ["train", "--config", "DIR", "--out", "OUT"],
], ids=["route_model", "route_input", "inspect_model", "gen_data_out",
        "gen_data_spec", "train_config"])
def test_directory_path_exits_2(tmp_path, capsys, argv):
    model = build_constellation_classifier(4, 4, 5, n_mid=4)
    write_model(tmp_path / "m.model", model.layers, 5)
    paths = {"DIR": tmp_path, "MODEL": tmp_path / "m.model",
             "DATA": tmp_path / "d.caps", "OUT": tmp_path / "out"}
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err
    assert "Traceback" not in err
    assert not paths["OUT"].exists()
