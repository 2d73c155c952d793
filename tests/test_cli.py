import csv
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

import ocksr.baselines as baselines
import ocksr.cli as cli
import ocksr.model as model_module
from ocksr.baselines import EigenSolverDidNotConverge
from ocksr.cholesky import NotPositiveDefinite
from ocksr.cli import main
from ocksr.dataset import (
    Dataset,
    l2_normalize,
    l2_normalize_rows,
    load_csv,
    make_synthetic,
    write_csv,
)
from ocksr.kernel import KernelSpec, median_pairwise_distance
from ocksr.model import Model, fit, load_model, save_model, score_batch
from oracles import project_train


def _synth_csv(tmp_path, name="data.csv", n_pos=30, n_neg=20, d=5, sep=4.0, seed=0):
    ds = make_synthetic(n_pos, n_neg, d, sep, seed)
    path = str(tmp_path / name)
    write_csv(ds, path)
    return path, ds


README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_exports():
    import ocksr

    assert ocksr.__version__
    # the names README documents at top level; the rest stay in their modules
    assert sorted(ocksr.__all__) == [
        "DataFormatError", "Dataset", "KernelSpec", "ModelFormatError",
        "NotPositiveDefinite", "bench_run", "calibrate_threshold", "classify", "fit",
        "fit_incremental", "fit_supervised", "load_model", "median_pairwise_distance",
        "save_model", "score_batch",
    ]
    for name in ocksr.__all__:
        assert getattr(ocksr, name).__module__.startswith("ocksr."), name


def test_readme_quick_start_runs():
    text = README.read_text()
    fence = "```python\n"
    start = text.index(fence, text.index("## Quick start")) + len(fence)
    scope = {}
    exec(compile(text[start:text.index("```", start)], str(README), "exec"), scope)
    mask, novelties = scope["is_target"], scope["novelties"]
    assert mask.dtype == bool and mask.shape == novelties.shape
    np.testing.assert_array_equal(mask, novelties <= scope["tau"])


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = str(tmp_path / "s.csv")
    rc = main(["synth", "--out", out, "--n-pos", "8", "--n-neg", "4",
               "--dim", "3", "--separation", "2.5", "--seed", "7"])
    assert rc == 0
    assert "wrote 12 rows" in capsys.readouterr().out
    ds = load_csv(out, label_column=0)
    ref = make_synthetic(8, 4, 3, 2.5, 7)
    np.testing.assert_array_equal(ds.X, ref.X)
    np.testing.assert_array_equal(ds.labels, ref.labels)


@pytest.mark.parametrize("flag,value,message", [
    ("--n-pos", "0", "need n_pos >= 1"), ("--dim", "0", "d >= 1"),
    ("--n-neg", "-2", "n_neg >= 0"), ("--separation", "-1", "not -1.0"),
    ("--separation", "nan", "not nan"), ("--separation", "inf", "not inf"),
])
def test_synth_bad_value_exit_1(tmp_path, capsys, flag, value, message):
    # synth reads no data, so make_synthetic's rule is a usage rule
    out = tmp_path / "s.csv"
    assert main(["synth", "--out", str(out), flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_train_matches_in_process_fit(tmp_path, capsys):
    data, ds = _synth_csv(tmp_path)
    model_path = str(tmp_path / "m.bin")
    rc = main(["train", "--data", data, "--label-col", "0",
               "--out", model_path, "--delta", "1e-8"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "trained on n=30 rows (n_neg=0), d=5" in printed
    assert "model written to" in printed

    pos = l2_normalize(ds).targets()
    ref = fit(pos, KernelSpec(sigma=median_pairwise_distance(pos), delta=1e-8))
    model = load_model(model_path)
    assert model.spec == ref.spec
    probes = l2_normalize(ds).X
    np.testing.assert_allclose(score_batch(model, probes)[1],
                               score_batch(ref, probes)[1], rtol=0, atol=1e-12)


def test_train_median_sigma_printed(tmp_path, capsys):
    data, ds = _synth_csv(tmp_path, n_neg=0, seed=9)
    main(["train", "--data", data, "--label-col", "0",
          "--out", str(tmp_path / "m.bin")])
    out = capsys.readouterr().out
    printed = float(out.split("sigma=")[1].split()[0])
    expect = median_pairwise_distance(l2_normalize(ds).targets())
    assert printed == pytest.approx(expect, rel=1e-10)


def test_train_no_normalize_keeps_raw_rows(tmp_path):
    data, ds = _synth_csv(tmp_path, n_neg=0, seed=10)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--no-normalize",
          "--out", model_path, "--delta", "1e-8"])
    np.testing.assert_array_equal(load_model(model_path).X_train, ds.targets())


def test_train_negatives_flag_supervised(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=20, n_neg=8, seed=8)
    model_path = str(tmp_path / "m.bin")
    rc = main(["train", "--data", data, "--label-col", "0", "--negatives",
               "--out", model_path, "--delta", "1e-8"])
    assert rc == 0
    assert "n_neg=8" in capsys.readouterr().out
    assert load_model(model_path).n_neg == 8


def test_score_training_rows_near_zero_novelty(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=20, n_neg=0, seed=3)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path])
    capsys.readouterr()
    rc = main(["score", "--model", model_path, "--data", data, "--label-col", "0"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,projection,novelty"
    assert len(lines) == 21
    novelties = [float(line.split(",")[2]) for line in lines[1:]]
    assert max(novelties) <= 1e-6


def test_score_decision_column_with_tau(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, seed=4)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path,
          "--delta", "1e-8"])
    capsys.readouterr()
    # normalized features leave tiny novelty scales: positives sit below
    # 3e-9 and negatives above 1e-5 here, so 1e-6 splits the classes
    rc = main(["score", "--model", model_path, "--data", data, "--label-col", "0",
               "--tau", "1e-6"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "index,projection,novelty,decision"
    decisions = set()
    for line in lines[1:]:
        parts = line.split(",")
        assert parts[3] == ("target" if float(parts[2]) <= 1e-6 else "outlier")
        decisions.add(parts[3])
    assert decisions == {"target", "outlier"}


def test_score_tau_boundary_is_inclusive(tmp_path, capsys):
    # the decision column is classify's rule: a probe whose novelty equals
    # tau is a target, and one ulp below its novelty it is an outlier
    data, _ = _synth_csv(tmp_path, seed=6)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--no-normalize",
          "--out", model_path, "--delta", "1e-8"])
    _, novelties = score_batch(load_model(model_path), load_csv(data, 0).X)
    i = int(np.argmax(novelties))
    T = float(novelties[i])
    assert T > 0.0
    for tau, want in ((T, "target"), (float(np.nextafter(T, 0.0)), "outlier")):
        capsys.readouterr()
        assert main(["score", "--model", model_path, "--data", data, "--label-col",
                     "0", "--no-normalize", "--tau", repr(tau)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1 + i].split(",")[3] == want


def test_score_writes_file(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=10, n_neg=0, seed=5)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path])
    out_path = str(tmp_path / "scores.csv")
    rc = main(["score", "--model", model_path, "--data", data, "--label-col", "0",
               "--out", out_path])
    assert rc == 0
    with open(out_path) as fh:
        text = fh.read()
    assert text.startswith("index,projection,novelty")
    assert len(text.strip().splitlines()) == 11


def test_score_dimension_mismatch_exit_2(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, d=5)
    other, _ = _synth_csv(tmp_path, name="other.csv", d=4)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path])
    assert main(["score", "--model", model_path, "--data", other,
                 "--label-col", "0"]) == 2


def test_calibrate_dimension_mismatch_exit_2(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, d=5)
    other, _ = _synth_csv(tmp_path, name="other.csv", n_neg=0, d=3)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path])
    with open(model_path, "rb") as fh:
        before = fh.read()
    capsys.readouterr()
    assert main(["calibrate", "--data", other, "--label-col", "0",
                 "--rejection", "0.1", "--model", model_path]) == 2
    err = capsys.readouterr().err
    assert "dimension 3" in err and "dimension 5" in err
    with open(model_path, "rb") as fh:
        assert fh.read() == before


def test_calibrate_prints_tau_and_updates_model(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=25, n_neg=0, seed=5)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path,
          "--delta", "1e-8"])
    capsys.readouterr()
    rc = main(["calibrate", "--data", data, "--label-col", "0",
               "--rejection", "0.1", "--model", model_path])
    assert rc == 0
    out = capsys.readouterr().out
    tau = float(out.split("tau=")[1].splitlines()[0])
    assert tau > 0.0
    model = load_model(model_path)
    assert model.tau == pytest.approx(tau, rel=1e-10)


def test_calibrate_without_model_only_prints(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=15, n_neg=0, seed=6)
    rc = main(["calibrate", "--data", data, "--label-col", "0",
               "--rejection", "0.0", "--delta", "1e-8"])
    assert rc == 0
    assert "tau=" in capsys.readouterr().out


def test_calibrate_refuses_supervised_model_exit_2(tmp_path, capsys):
    # target-only fits give no threshold for a model trained on negatives
    data, _ = _synth_csv(tmp_path, n_pos=25, n_neg=10, seed=7)
    model_path = str(tmp_path / "m.bin")
    assert main(["train", "--data", data, "--label-col", "0", "--negatives",
                 "--out", model_path, "--delta", "1e-8"]) == 0
    before = (tmp_path / "m.bin").read_bytes()
    capsys.readouterr()
    assert main(["calibrate", "--data", data, "--label-col", "0",
                 "--rejection", "0.1", "--model", model_path]) == 2
    assert "10 negative rows" in capsys.readouterr().err
    assert (tmp_path / "m.bin").read_bytes() == before


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_model_file_exit_2(tmp_path, capsys, bad):
    data, ds = _synth_csv(tmp_path, n_pos=15, n_neg=0, seed=8)
    m = fit(l2_normalize(ds).targets(), KernelSpec(sigma=1.0, delta=1e-8))
    X = m.X_train.copy()
    X[4, 2] = bad
    model_path = str(tmp_path / "m.bin")
    save_model(Model(X, m.alpha, m.nu, m.spec), model_path)
    before = (tmp_path / "m.bin").read_bytes()
    capsys.readouterr()
    assert main(["score", "--model", model_path, "--data", data,
                 "--label-col", "0"]) == 2
    assert main(["calibrate", "--data", data, "--label-col", "0",
                 "--rejection", "0.1", "--model", model_path]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("non-finite") == 2 and "nan" not in captured.out
    assert (tmp_path / "m.bin").read_bytes() == before


@pytest.mark.parametrize("fmt,offset,value", [
    ("<d", 8, np.nan), ("<d", 8, 0.0), ("<d", 8, -1.0),  # sigma
    ("<d", 16, -1e-8),  # delta
    ("<Q", 32, 16),  # n_neg, above n = 15
    ("<B", 6, 2),  # kernel family: only the Gaussian kernel, code 1, exists
    ("<d", 48, -1.0), ("<d", 48, np.inf),  # stored threshold tau
])
def test_bad_model_header_exit_2(tmp_path, capsys, fmt, offset, value):
    data, ds = _synth_csv(tmp_path, n_pos=15, n_neg=0, seed=8)
    model_path = tmp_path / "m.bin"
    m = fit(l2_normalize(ds).targets(), KernelSpec(sigma=1.0, delta=1e-8))
    save_model(Model(m.X_train, m.alpha, m.nu, m.spec, tau=0.5), str(model_path))
    blob = bytearray(model_path.read_bytes())
    struct.pack_into(fmt, blob, offset, value)
    model_path.write_bytes(bytes(blob))
    capsys.readouterr()
    assert main(["score", "--model", str(model_path), "--data", data,
                 "--label-col", "0"]) == 2
    assert str(model_path) in capsys.readouterr().err
    assert model_path.read_bytes() == bytes(blob)


def test_append_duplicate_row_at_zero_delta_exit_3(tmp_path, capsys):
    # appends keep the stored delta: no ladder rescues a duplicate at 0
    full = make_synthetic(20, 0, 5, 0.0, seed=9)
    first = str(tmp_path / "first.csv")
    dup = str(tmp_path / "dup.csv")
    write_csv(full, first)
    write_csv(Dataset(full.X[[7]], full.labels[[7]]), dup)
    m1 = str(tmp_path / "m1.bin")
    assert main(["train", "--data", first, "--label-col", "0", "--out", m1]) == 0
    assert load_model(m1).spec.delta == 0.0
    capsys.readouterr()
    assert main(["train", "--data", dup, "--label-col", "0", "--append", m1,
                 "--out", str(tmp_path / "m2.bin")]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "m2.bin")


def test_append_matches_batch_retrain(tmp_path, capsys):
    full = make_synthetic(40, 0, 5, 0.0, seed=6)
    first = str(tmp_path / "first.csv")
    second = str(tmp_path / "second.csv")
    write_csv(Dataset(full.X[:25], full.labels[:25]), first)
    write_csv(Dataset(full.X[25:], full.labels[25:]), second)
    m1 = str(tmp_path / "m1.bin")
    m2 = str(tmp_path / "m2.bin")
    assert main(["train", "--data", first, "--label-col", "0", "--out", m1,
                 "--delta", "1e-8"]) == 0
    assert main(["train", "--data", second, "--label-col", "0",
                 "--append", m1, "--out", m2]) == 0

    base = load_model(m1)
    ref = fit(l2_normalize_rows(full.X), base.spec)
    appended = load_model(m2)
    assert appended.n == 40
    np.testing.assert_allclose(appended.alpha, ref.alpha, atol=1e-9)


def _printed_variance(capsys):
    out = capsys.readouterr().out
    return float(out.split("training projection variance=")[1].split()[0])


def test_train_variance_matches_projections(tmp_path, capsys):
    plain, _ = _synth_csv(tmp_path, name="plain.csv", n_neg=0, seed=11)
    labeled, _ = _synth_csv(tmp_path, name="labeled.csv", n_pos=20, n_neg=8, seed=12)
    extra, _ = _synth_csv(tmp_path, name="extra.csv", n_pos=10, n_neg=0, seed=13)
    paths = [str(tmp_path / f"{name}.bin") for name in ("plain", "sup", "app")]
    runs = [
        ["train", "--data", plain, "--label-col", "0", "--out", paths[0],
         "--delta", "1e-3"],
        ["train", "--data", labeled, "--label-col", "0", "--negatives",
         "--out", paths[1], "--delta", "1e-8"],
        ["train", "--data", extra, "--label-col", "0", "--append", paths[0],
         "--out", paths[2]],
    ]
    for argv, path in zip(runs, paths):
        assert main(argv) == 0
        oracle = float(np.var(project_train(load_model(path))))
        assert _printed_variance(capsys) == pytest.approx(oracle, rel=0, abs=1e-12)


def test_append_rejects_negatives(tmp_path):
    clean, _ = _synth_csv(tmp_path, name="clean.csv", n_pos=20, n_neg=0)
    dirty, _ = _synth_csv(tmp_path, name="dirty.csv", n_pos=10, n_neg=5)
    m1 = str(tmp_path / "m1.bin")
    main(["train", "--data", clean, "--label-col", "0", "--out", m1,
          "--delta", "1e-8"])
    rc = main(["train", "--data", dirty, "--label-col", "0",
               "--append", m1, "--out", str(tmp_path / "m2.bin")])
    assert rc == 2


def test_eval_command_prints_and_writes_json(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=30, n_neg=30, sep=6.0, seed=11)
    out = str(tmp_path / "r.json")
    rc = main(["eval", "--data", data, "--label-col", "0", "--method", "kmeans",
               "--repeats", "2", "--seed", "3", "--k", "4", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "kmeans k=4: mean_auc=" in text
    with open(out) as fh:
        payload = json.load(fh)
    assert payload["repeats"] == 2
    assert payload["base_seed"] == 3


def test_bench_command_reports(tmp_path, capsys):
    d1, _ = _synth_csv(tmp_path, name="d1.csv", sep=6.0, seed=12)
    d2, _ = _synth_csv(tmp_path, name="d2.csv", sep=1.0, seed=13)
    out = str(tmp_path / "rep")
    rc = main(["bench", "--data", d1, "--data", d2, "--label-col", "0",
               "--method", "ocksr", "--method", "knndd", "--repeats", "2",
               "--seed", "5", "--k", "3", "--out", out])
    assert rc == 0
    for suffix in (".csv", "_ranks.csv", ".json"):
        assert os.path.exists(out + suffix)
    text = capsys.readouterr().out
    assert "average ranks:" in text
    assert "friedman chi_square=" in text


def test_bench_repeated_dataset_or_method_exit_2(tmp_path, capsys):
    a, _ = _synth_csv(tmp_path, name="a.csv", seed=12)
    b, _ = _synth_csv(tmp_path, name="b.csv", seed=13)
    out = str(tmp_path / "rep")
    dot_a = os.path.join(os.path.dirname(a), ".", os.path.basename(a))
    for data, methods, named in (([a, a, b], ["ocksr", "kmeans"], a),
                                 ([a, dot_a], ["ocksr", "kmeans"], dot_a),
                                 ([a, b], ["ocksr", "kmeans", "kmeans"], "kmeans")):
        argv = ["bench", "--label-col", "0", "--repeats", "2", "--out", out]
        argv += [x for path in data for x in ("--data", path)]
        argv += [x for m in methods for x in ("--method", m)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert repr(named) in captured.err and captured.out == ""
    assert not os.path.exists(out + ".csv")


def test_bench_csv_keeps_a_comma_in_the_dataset_name(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, name="x,y.csv", seed=12)
    out = str(tmp_path / "report")
    assert main(["bench", "--data", data, "--label-col", "0", "--method", "ocksr",
                 "--method", "kmeans", "--repeats", "2", "--k", "3",
                 "--out", out]) == 0
    capsys.readouterr()
    with open(out + ".csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["dataset", "method", "mean_auc", "std_auc", "param", "rank"]
    assert [row[:2] for row in rows[1:]] == [[data, "ocksr"], [data, "kmeans"]]
    assert all(len(row) == 6 for row in rows)


def test_bench_deterministic_outputs(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, sep=5.0, seed=14)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["bench", "--data", data, "--label-col", "0",
                     "--method", "ocksr", "--method", "kmeans",
                     "--repeats", "2", "--seed", "9", "--k", "4",
                     "--out", out]) == 0
        blobs.append([Path(out + s).read_bytes()
                      for s in (".csv", "_ranks.csv", ".json")])
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_usage_error_exit_1():
    for argv in [
        ["train", "--data", "x.csv"],  # missing required flags
        # delta is a training setting: eval and bench take none
        ["eval", "--data", "x.csv", "--label-col", "0", "--delta", "0.5"],
        ["bench", "--data", "x.csv", "--label-col", "0", "--method", "ocksr",
         "--out", "r", "--delta", "0.5"],
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1, argv


def test_unknown_command_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_bad_sigma_exit_1(tmp_path):
    train = ["train", "--data", "d.csv", "--label-col", "0",
             "--out", str(tmp_path / "m.bin")]
    score = ["score", "--model", "m.bin", "--data", "d.csv"]
    calibrate = ["calibrate", "--data", "d.csv", "--label-col", "0"]
    evaluate = ["eval", "--data", "d.csv", "--label-col", "0", "--method", "knndd"]
    bench = ["bench", "--data", "d.csv", "--label-col", "0", "--method", "knndd",
             "--out", str(tmp_path / "r")]
    for argv, flag, value in [
        (train, "--sigma", "-2"), (train, "--sigma", "nan"), (train, "--sigma", "inf"),
        (train, "--sigma", "mean"), (calibrate, "--sigma", "0"), (bench, "--sigma", "x"),
        (train, "--delta", "-1"), (train, "--delta", "nan"),
        # classify's rule: a threshold is a finite nonnegative real
        (score, "--tau", "nan"), (score, "--tau", "-1"), (score, "--tau", "inf"),
        # calibrate_threshold's rule: a rejection rate lies in [0, 1)
        (calibrate, "--rejection", "1.5"), (calibrate, "--rejection", "nan"),
        # repeated_aucs' rule: at least one repeat; bench_run's: k >= 1
        (evaluate, "--repeats", "0"), (evaluate, "--k", "0"), (evaluate, "--k", "-1"),
        (bench, "--repeats", "0"), (bench, "--repeats", "-3"), (bench, "--k", "0"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, value])
        assert exc.value.code == 1, (flag, value)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("labeled", [False, True])
def test_non_finite_probe_exit_2(tmp_path, capsys, token, labeled):
    _, ds = _synth_csv(tmp_path, n_pos=15, n_neg=0, seed=8)  # d = 5
    model_path = str(tmp_path / "m.bin")
    save_model(fit(l2_normalize(ds).targets(), KernelSpec(sigma=1.0)), model_path)
    rows = ["0.5,0.25,0.5,0.25,0.5", f"0.5,0.25,{token},0.25,0.5"]
    if labeled:
        rows = ["1," + row for row in rows]
    probes = tmp_path / "probes.csv"
    probes.write_text("\n".join(rows) + "\n")
    out = tmp_path / "scores.csv"
    argv = ["score", "--model", model_path, "--data", str(probes), "--out", str(out)]
    if labeled:
        argv += ["--label-col", "0"]
    capsys.readouterr()
    assert main(argv) == 2
    column = 3 if labeled else 2
    assert (f"non-finite value {token!r} at line 2, column {column}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_missing_file_exit_2(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--label-col", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 2


def test_bad_label_exit_2(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("2,0.5\n1,0.25\n")
    rc = main(["train", "--data", str(p), "--label-col", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 2


def test_field_only_python_float_reads_exit_2(tmp_path, capsys):
    p = tmp_path / "underscore.csv"
    p.write_text("1,0.5\n1,2_0\n")
    rc = main(["train", "--data", str(p), "--label-col", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 2
    assert "'2_0'" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_no_target_rows_exit_2(tmp_path):
    p = tmp_path / "neg.csv"
    p.write_text("0,0.5,1.0\n0,0.25,2.0\n")
    rc = main(["train", "--data", str(p), "--label-col", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    data, _ = _synth_csv(tmp_path, n_neg=0)

    def boom(*args, **kwargs):
        raise NotPositiveDefinite(3)

    monkeypatch.setattr(cli, "fit", boom)
    rc = main(["train", "--data", data, "--label-col", "0",
               "--out", str(tmp_path / "m.bin")])
    assert rc == 3


def test_calibrate_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    data, _ = _synth_csv(tmp_path, n_neg=0)

    def singular(*args, **kwargs):
        raise NotPositiveDefinite(3)

    # every rung of the delta ladder fails
    monkeypatch.setattr(model_module, "factor_batch", singular)
    rc = main(["calibrate", "--data", data, "--label-col", "0",
               "--rejection", "0.1"])
    assert rc == 3


def test_eigen_failure_exit_3(tmp_path, monkeypatch, capsys):
    # the failure is raised inside a repeat, as a real one would be
    data, _ = _synth_csv(tmp_path, n_pos=30, n_neg=30)
    for method, module, name, exc in [
            ("kpca", baselines, "kpca_fit", EigenSolverDidNotConverge("stalled")),
            ("ocksr", model_module, "factor_batch", NotPositiveDefinite(3))]:

        def boom(*args, exc=exc, **kwargs):
            raise exc

        with monkeypatch.context() as patch:
            patch.setattr(module, name, boom)
            with pytest.warns(UserWarning):
                rc = main(["eval", "--data", data, "--label-col", "0",
                           "--method", method, "--repeats", "2"])
        assert rc == 3, method
        assert "numerical failure: repeat 0 (seed 0) failed" in capsys.readouterr().err
