"""Only LightGCN pretraining loads scipy.sparse.

Each check runs the CLI in a fresh interpreter and reads which modules it
loaded: the package, a train-only rerun whose pretrain stage is served and a
cold run that pretrains.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multitap
from multitap.cli import main

ENV = {**os.environ, "PYTHONPATH": str(Path(multitap.__file__).resolve().parent.parent)}

# Imports the CLI and, given arguments after the report path, runs it on them;
# then writes its exit code and the watched modules it loaded to the report.
RUNNER = """
import json, sys
from multitap.cli import main
code = main(sys.argv[2:]) if sys.argv[2:] else 0
watched = ("scipy.sparse", "numpy.f2py")
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "loaded": [m for m in watched if m in sys.modules]}, fh)
"""


def loaded_modules(tmp_path: Path, *argv: str) -> tuple[list[str], str]:
    """(the watched modules loaded, stdout) of one fresh interpreter that
    imports the CLI and runs `multitap *argv`."""
    report = tmp_path / "modules.json"
    done = subprocess.run(
        [sys.executable, "-c", RUNNER, str(report), *argv],
        cwd=tmp_path, env=ENV, check=True, capture_output=True, text=True, timeout=300,
    )
    out = json.loads(report.read_text())
    assert out["code"] == 0, out
    return out["loaded"], done.stdout


def run_stages(stdout: str) -> dict[str, str]:
    return json.loads(stdout)["stages"]


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """(config path, modules loaded, stdout) of a cold run through train on a 30-user fixture."""
    root = tmp_path_factory.mktemp("imports")
    assert main(["fixture", "--out", str(root / "fx"), "--users", "30", "--seed", "3"]) == 0
    config = json.loads((root / "fx" / "config.json").read_text())
    config.update(run_dir=str(root / "run"), seeds=[0])
    config["gcn"].update(epochs=2, patience=2)
    for trainer in ("train", "source_train"):
        config[trainer].update(max_epochs=2, patience=2)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    return (config_path, *loaded_modules(root, "run", "--config", str(config_path),
                                         "--stages", "ingest,split,idh,persona,pretrain,train"))


def test_cli_import_loads_no_scipy_sparse(tmp_path):
    assert loaded_modules(tmp_path)[0] == []


def test_cold_run_loads_scipy_sparse_to_pretrain(cold_run):
    _, loaded, stdout = cold_run
    assert run_stages(stdout)["pretrain"] == "ran"
    assert "scipy.sparse" in loaded


def test_train_only_rerun_loads_no_scipy_sparse(cold_run, tmp_path):
    config_path = cold_run[0]
    loaded, stdout = loaded_modules(tmp_path, "train", "--config", str(config_path),
                                    "--lambda", "0.7")
    stages = run_stages(stdout)
    assert stages["pretrain"] == "cached" and stages["train"] == "ran", stages
    assert loaded == []
