import json
import os

import numpy as np
import pytest

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
from ocksr.model import fit, load_model, project_train, score_batch


def _synth_csv(tmp_path, name="data.csv", n_pos=30, n_neg=20, d=5, sep=4.0, seed=0):
    ds = make_synthetic(n_pos, n_neg, d, sep, seed)
    path = str(tmp_path / name)
    write_csv(ds, path)
    return path, ds


def test_package_exports():
    import ocksr

    assert ocksr.__version__
    assert callable(ocksr.fit) and callable(ocksr.roc_auc)


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


def test_score_writes_file(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, n_pos=10, n_neg=0, seed=5)
    model_path = str(tmp_path / "m.bin")
    main(["train", "--data", data, "--label-col", "0", "--out", model_path])
    out_path = str(tmp_path / "scores.csv")
    rc = main(["score", "--model", model_path, "--data", data, "--label-col", "0",
               "--out", out_path])
    assert rc == 0
    text = open(out_path).read()
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
    before = open(model_path, "rb").read()
    capsys.readouterr()
    assert main(["calibrate", "--data", other, "--label-col", "0",
                 "--rejection", "0.1", "--model", model_path]) == 2
    err = capsys.readouterr().err
    assert "dimension 3" in err and "dimension 5" in err
    assert open(model_path, "rb").read() == before


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
    payload = json.loads(open(out).read())
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


def test_bench_deterministic_outputs(tmp_path, capsys):
    data, _ = _synth_csv(tmp_path, sep=5.0, seed=14)
    blobs = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag)
        assert main(["bench", "--data", data, "--label-col", "0",
                     "--method", "ocksr", "--method", "kmeans",
                     "--repeats", "2", "--seed", "9", "--k", "4",
                     "--out", out]) == 0
        blobs.append([open(out + s, "rb").read()
                      for s in (".csv", "_ranks.csv", ".json")])
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_usage_error_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "x.csv"])  # missing required flags
    assert exc.value.code == 1


def test_unknown_command_exit_1():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 1


def test_bad_sigma_exit_1(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--data", "d.csv", "--label-col", "0",
              "--out", str(tmp_path / "m.bin"), "--sigma", "-2"])
    assert exc.value.code == 1


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
    data, _ = _synth_csv(tmp_path, n_pos=30, n_neg=30)

    def boom(*args, **kwargs):
        raise EigenSolverDidNotConverge("stalled")

    monkeypatch.setattr(cli.evaluation, "bench_run", boom)
    rc = main(["eval", "--data", data, "--label-col", "0", "--method", "kpca"])
    assert rc == 3
