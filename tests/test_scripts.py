import json
import os
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def _run_script(name, *args, cwd=None):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=300)


def test_synthetic_benchmark_writes_three_reports(tmp_path):
    out = tmp_path / "reports" / "synthetic"
    proc = _run_script("synthetic_benchmark.py", "--separations", "0", "4",
                       "--n-pos", "12", "--n-neg", "12", "--dim", "3",
                       "--repeats", "2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    csv_lines = (tmp_path / "reports" / "synthetic.csv").read_text().splitlines()
    assert csv_lines[0] == "dataset,method,mean_auc,std_auc,param,rank"
    assert len(csv_lines) == 1 + 2 * 4  # two datasets, four methods
    ranks = (tmp_path / "reports" / "synthetic_ranks.csv").read_text()
    assert "method,average_rank" in ranks
    payload = json.loads((tmp_path / "reports" / "synthetic.json").read_text())
    assert payload["repeats"] == 2 and len(payload["datasets"]) == 2


def test_streaming_cost_prints_one_row_per_size():
    proc = _run_script("streaming_cost.py", "--sizes", "20", "40", "--dim", "4",
                       "--reps", "1")
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split()[0] == "n"
    assert [row.split()[0] for row in rows] == ["20", "40"]
