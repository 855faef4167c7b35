"""Run dirs do not depend on the BLAS thread count of the host."""

import json
import os
import subprocess
import sys
from pathlib import Path

import multitap
from multitap.cli import main

BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_in_subprocess(config_path: Path, cwd: Path, blas_threads: str | None) -> dict[str, bytes]:
    """Every file of the run dir that `multitap run` writes in `cwd`, with the
    BLAS variables at `blas_threads`, or unset for None."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    if blas_threads is not None:
        env.update(dict.fromkeys(BLAS_VARIABLES, blas_threads))
    env["PYTHONPATH"] = str(Path(multitap.__file__).resolve().parent.parent)
    cwd.mkdir()
    subprocess.run(
        [sys.executable, "-m", "multitap.cli", "run", "--config", str(config_path)],
        cwd=cwd, env=env, check=True, capture_output=True, timeout=300,
    )
    run_dir = cwd / "run"
    return {str(p.relative_to(run_dir)): p.read_bytes()
            for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_unset_blas_variables_write_the_one_thread_bytes(tmp_path, capsys):
    # The 200-user corpus drifts at two BLAS threads through the doppelganger
    # transfer path; the 30-user one does not, so it could not show the drift.
    assert main(["fixture", "--out", str(tmp_path / "fx"), "--users", "200", "--seed", "7"]) == 0
    config = json.loads((tmp_path / "fx" / "config.json").read_text())
    config.update(run_dir="run", seeds=[0])
    config["gcn"].update(epochs=2, patience=2)
    for trainer in ("train", "source_train"):
        config[trainer].update(max_epochs=2, patience=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()

    unset = run_in_subprocess(config_path, tmp_path / "unset", None)
    one = run_in_subprocess(config_path, tmp_path / "one", "1")
    assert "model/target_seed0.ckpt" in one
    assert sorted(unset) == sorted(one)
    assert [name for name in one if unset[name] != one[name]] == []
