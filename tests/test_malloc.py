"""Importing multitap keeps freed multi-MB arrays in the process heap, and
where an array sits moves no bit of a run dir."""

import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import multitap
from multitap.cli import main
from test_threads import run_in_subprocess

# glibc's variables: a caller that sets one keeps its own allocator settings
MALLOC_VARIABLES = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TOP_PAD_",
                    "GLIBC_TUNABLES")
# glibc's static start values: every block over 128 KiB is a fresh mapping
STATIC_THRESHOLDS = {"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "131072"}
# rounds of six 3 MiB arrays, allocated, touched and freed; each array stays
# under the 4 MiB from which numpy asks for huge pages, so a touch faults per page
ROUNDS = """
import resource
import multitap
import numpy as np

def round_faults():
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    arrays = [np.empty(3 << 17) for _ in range(6)]
    for array in arrays:
        array.fill(1.0)
    del arrays
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

print([round_faults() for _ in range(5)])
"""
ROUND_PAGES = 6 * (3 << 20) // resource.getpagesize()


def _huge_pages_always() -> bool:
    """True when transparent huge pages back every anonymous mapping, so a
    touched 3 MiB array may take one fault, not one per page."""
    try:
        return "[always]" in Path("/sys/kernel/mm/transparent_hugepage/enabled").read_text()
    except OSError:
        return False


glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the thresholds are glibc's")
# the fault tests count base pages
per_page_faults = pytest.mark.skipif(_huge_pages_always(),
                                     reason="transparent huge pages set to always")


def round_faults(**malloc_env: str) -> list[int]:
    """The minor faults of each round, in a fresh interpreter with only
    `malloc_env` of glibc's variables set."""
    env = {k: v for k, v in os.environ.items() if k not in MALLOC_VARIABLES}
    env.update(malloc_env, PYTHONPATH=str(Path(multitap.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", ROUNDS], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    return json.loads(out)


@glibc_only
@per_page_faults
def test_freed_arrays_are_not_faulted_back_in():
    faults = round_faults()
    assert faults[0] >= ROUND_PAGES // 2, faults
    assert all(n < ROUND_PAGES // 20 for n in faults[1:]), faults


@glibc_only
@per_page_faults
def test_a_caller_malloc_setting_keeps_glibc_in_charge():
    faults = round_faults(MALLOC_TRIM_THRESHOLD_="131072")
    assert all(n >= ROUND_PAGES // 2 for n in faults), faults


def test_array_placement_writes_the_same_bytes(tmp_path, capsys, monkeypatch):
    assert main(["fixture", "--out", str(tmp_path / "fx"), "--users", "200", "--seed", "7"]) == 0
    config = json.loads((tmp_path / "fx" / "config.json").read_text())
    config.update(run_dir="run", seeds=[0])
    config["gcn"].update(epochs=2, patience=2)
    for trainer in ("train", "source_train"):
        config[trainer].update(max_epochs=2, patience=2)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    capsys.readouterr()

    for name in MALLOC_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    default = run_in_subprocess(config_path, tmp_path / "default", "1")
    for name, value in STATIC_THRESHOLDS.items():
        monkeypatch.setenv(name, value)
    static = run_in_subprocess(config_path, tmp_path / "static", "1")
    assert "model/target_seed0.ckpt" in default
    assert sorted(default) == sorted(static)
    assert [name for name in default if default[name] != static[name]] == []
