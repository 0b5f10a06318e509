"""The scripts and import-time behaviour around the package, each run in a
fresh interpreter on the source tree."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_python(args, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300,
                          **kwargs)


def test_reference_workflow_script_writes_its_artifacts(tmp_path):
    out = tmp_path / "reference"
    done = run_python([str(ROOT / "scripts" / "reproduce_reference.py"),
                       "--n", "144", "--out-dir", str(out)])
    assert done.returncode == 0, done.stderr
    for name in ("data.csv", "report.json", "table1.csv", "curve.csv",
                 "trace_interp.json"):
        assert (out / name).stat().st_size > 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "profiled_eta"
    assert report["hyperparams"]["sigma02"] > 0


def test_import_does_not_load_scipy_optimize():
    done = run_python(["-c", "import sys, etafit; "
                             "print('scipy.optimize' in sys.modules)"])
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
