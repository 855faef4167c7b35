"""Pipeline benchmark: end-to-end run metrics and per-layer timings.

    python3 perfbench/run.py --workload scale --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  A run first sets up three times,
each in a fresh `setup` child that rebuilds the same directory (synthetic
corpus from `--seed`, plus a priming run for `sweep`), and reports the
median as `setup_s`.  It then repeats a fresh, timed `run` child over every
pipeline stage on a copy of that set-up until `--seconds` have passed (at
least three repetitions; two with `--tiny` or `--trace 1`).  Children run
one at a time.  Every repetition's outputs are checked, and `report.json`
and every `*.ckpt` must be byte-identical across repetitions.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: `run_s` and
`run_cpu_s` as means over the repetitions, `setup_s` and `peak_rss_mb` as
medians.  `--trace 1` alternates untraced and traced
repetitions and reports the per-layer metrics (medians over the traced
ones) plus the tracing overhead.  The last line of standard output is one
JSON object; the lines above it are a readable report and the machine info.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import STAGES, WORKLOADS, workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 170.0  # every child of one benchmark run ends by then
SETUPS = 3  # setup_s is the median of this many set-ups
BLAS_THREADS = 1  # at most nproc; one thread keeps run_cpu_s comparable to run_s


class RepFailure(Exception):
    pass


def child(step: str, rep_dir: Path, args, deadline: float, trace: bool = False) -> dict:
    out = rep_dir.parent / f"{rep_dir.name}-{step}.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), step,
        "--workload", args.workload, "--seed", str(args.seed),
        "--out", str(out),
    ]
    cmd += ["--tiny"] * args.tiny + ["--trace"] * trace
    threads = str(BLAS_THREADS)
    env = dict(
        os.environ,
        PYTHONPATH=f"{SRC}{os.pathsep}{HERE}",
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(rep_dir),
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    try:
        proc = subprocess.run(
            cmd, cwd=rep_dir, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise RepFailure(f"{step} child timed out") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise RepFailure(f"{step} child exited {proc.returncode}: {tail}")
    return json.loads(out.read_text(encoding="utf-8"))


def tree_size(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def check_outputs(run_dir: Path, status: dict, spec: dict) -> tuple[dict, dict]:
    """Raise RepFailure unless the run is complete and sane; return the
    artifact digests and the test quality."""
    if set(status) != set(STAGES):
        raise RepFailure(f"stage status covers {sorted(status)}")
    if "prime" not in spec and any(v != "ran" for v in status.values()):
        raise RepFailure(f"cold run reused stages: {status}")
    if status["train"] != "ran" or status["eval"] != "ran":
        raise RepFailure(f"train-side change did not rerun train and eval: {status}")
    report_path = run_dir / "eval" / "report.json"
    if not report_path.is_file():
        raise RepFailure("eval/report.json missing")
    report = json.loads(report_path.read_text(encoding="utf-8"))
    if min(report["units_per_seed"]) <= 0 or max(report["skipped_per_seed"]) != 0:
        raise RepFailure(f"eval units {report['units_per_seed']} skipped {report['skipped_per_seed']}")
    quality = {f"test_{m['metric'].lower()}_{m['K']}": m["mean"] for m in report["metrics"]}
    if not all(math.isfinite(v) for v in quality.values()):
        raise RepFailure(f"non-finite quality {quality}")
    artifacts = [report_path] + sorted(run_dir.rglob("*.ckpt"))
    digests = {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest() for p in artifacts
    }
    return digests, quality


def one_rep(rep_dir: Path, setup_dir: Path, args, spec: dict, trace: bool, deadline: float) -> dict:
    """Time one pipeline run on a copy of a set-up directory and check it."""
    shutil.copytree(setup_dir, rep_dir)
    try:
        result = child("run", rep_dir, args, deadline, trace)
        run_dir = rep_dir / "run"
        result["digests"], result["quality"] = check_outputs(run_dir, result["status"], spec)
        cache_files, cache_bytes = tree_size(run_dir / "cache")
        run_files, run_bytes = tree_size(run_dir)
        result["outside"] = {
            "persona.cache_files": cache_files,
            "persona.cache_bytes": cache_bytes,
            "pipeline.run_dir_files": run_files - cache_files,
            "pipeline.run_dir_bytes": run_bytes - cache_bytes,
        }
        if trace:
            shutil.copyfile(rep_dir / "spans.json", WORK / f"spans-{args.workload}-seed{args.seed}.json")
        result["traced"] = trace
        return result
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def measure(args, spec: dict, work: Path) -> tuple[list[dict], list[dict], int, int]:
    """Set up SETUPS times from scratch in one directory, then run
    repetitions on copies of the last set-up until --seconds have passed;
    with --trace 1, alternate untraced and traced repetitions."""
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    setup_dir = work / "setup"
    setups = []
    for _ in range(SETUPS):
        shutil.rmtree(setup_dir, ignore_errors=True)
        setup_dir.mkdir(parents=True)
        setups.append(child("setup", setup_dir, args, deadline))
    start = time.monotonic()
    min_reps = 2 if args.tiny or args.trace else 3
    reps: list[dict] = []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        if attempted >= min_reps and elapsed >= args.seconds:
            break
        if deadline - time.monotonic() < 1.5 * longest + 10.0:
            break
        trace = bool(args.trace) and attempted % 2 == 1
        began = time.monotonic()
        attempted += 1
        try:
            rep = one_rep(work / f"rep{attempted}", setup_dir, args, spec, trace, deadline)
            if reps and rep["digests"] != reps[0]["digests"]:
                differing = sorted(
                    name for name in rep["digests"] if rep["digests"][name] != reps[0]["digests"].get(name)
                )
                raise RepFailure(f"artifacts differ from the first repetition: {differing}")
            reps.append(rep)
        except RepFailure as exc:
            failed += 1
            print(f"repetition {attempted} failed: {exc}", file=sys.stderr)
        except Exception:  # a broken output is a failed repetition, not a crash
            failed += 1
            print(f"repetition {attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
        longest = max(longest, time.monotonic() - began)
    return setups, reps, attempted, failed


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def declared_metrics() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def summarize(values: list[float]) -> str:
    listed = " ".join(f"{v:.4g}" for v in values)
    return (
        f"mean {statistics.mean(values):.6g}  median {statistics.median(values):.6g}"
        f"  max {max(values):.6g}  n={len(values)}  [{listed}]"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test corpus size")
    args = parser.parse_args(argv)
    if not (SRC / "multitap" / "__init__.py").is_file():
        print(f"no multitap source tree under {SRC}", file=sys.stderr)
        return 2
    declared = declared_metrics()
    spec = workload(args.workload, args.tiny)

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups, reps, attempted, failed = measure(args, spec, work)
    except RepFailure as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not plain or (args.trace and not traced):
        print(f"no successful repetition ({failed} of {attempted} failed)", file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "tiny": args.tiny,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit(),
        "src_sha256": source_digest(),
        **setups[0]["versions"],
    }
    print(f"# perfbench {args.workload} seed {args.seed}: {attempted} repetitions, {failed} failed")
    print("# info " + json.dumps(info, sort_keys=True))

    if args.trace:
        per_rep = [{**r["layers"], **r["outside"]} for r in traced]
        values = {name: statistics.median(r[name] for r in per_rep) for name in per_rep[0]}
        plain_s = statistics.median(r["run_s"] for r in plain)
        traced_s = statistics.median(r["run_s"] for r in traced)
        values.update({
            "trace.untraced_run_s": plain_s,
            "trace.traced_run_s": traced_s,
            "trace.overhead_s": traced_s - plain_s,
            "pipeline.stages_ran": sum(v == "ran" for v in traced[0]["status"].values()),
            "pipeline.stages_cached": sum(v == "cached" for v in traced[0]["status"].values()),
            "evaluate.test_hr_5": traced[0]["quality"]["test_hr_5"],
            "evaluate.test_ndcg_5": traced[0]["quality"]["test_ndcg_5"],
        })
        uncalled = traced[0]["uncalled"]
        section = "per_layer"
    else:
        # The host's speed drifts over seconds to minutes.  The mean over
        # the run's repetitions tracks the run's average speed more closely
        # than the median of so few samples: on a 2-vCPU VM, over the same
        # ten-seed runs, it cut the quartile spread of run_s from 13.7% to
        # 8.7% on scale and from 6.6% to 4.3% on sweep (README.md, "Noise").
        values = {
            "run_s": statistics.mean(r["run_s"] for r in plain),
            "run_cpu_s": statistics.mean(r["run_cpu_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        for name in ("run_s", "run_cpu_s", "peak_rss_mb"):
            print(f"{name:<12} {summarize([r[name] for r in plain])}")
        print(f"{'setup_s':<12} {summarize([r['setup_s'] for r in setups])}")
        print(f"{'fail_share':<12} {failed / attempted:.6g} ({failed} of {attempted})")
        for name, value in plain[0]["quality"].items():
            print(f"{name:<12} {value:.6g} (identical in every repetition)")
        uncalled = []
        section = "end_to_end"

    metrics = {}
    for entry in declared[section]:
        name = entry["name"]
        if name not in values:
            print(f"metric {name} declared in BENCHMARK.json was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": values[name], "unit": entry["unit"]}
        mark = "  (n/a: entry point not called)" if any(
            name.startswith(ep + "_") for ep in uncalled
        ) else ""
        print(f"{name:<36} {values[name]:.6g} {entry['unit']}{mark}")
    print(json.dumps({
        "correct": failed == 0 and len(reps) >= 2,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
