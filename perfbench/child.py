"""One benchmark repetition step, run by `run.py` in a fresh process.

    child.py setup --workload W --seed N [--tiny] --out result.json
    child.py run   --workload W --seed N [--tiny] [--trace] --out result.json

Both run with the repetition directory as working directory and write
only below it.  `setup` writes the synthetic corpus to `fixture/` (and, for
a workload with a `prime` step, completes a first run in `run/`).  `run`
times one `Pipeline.run` over every stage; with `--trace` it also wraps the
entry points, checks that the expected ones were called, and writes the
spans to `spans.json`.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy
import scipy
from tracing import ENTRY_POINTS, Tracer, layer_metrics
from workloads import STAGES, workload

import multitap
from multitap.fixtures import FixturePaths, FixtureSpec, fixture_config_dict, write_fixture
from multitap.pipeline import Pipeline, PipelineConfig

FIXTURE = Path("fixture")


def _config(spec: dict, step: str) -> PipelineConfig:
    paths = FixturePaths(
        source_interactions=FIXTURE / "source_interactions.jsonl",
        source_metadata=FIXTURE / "source_metadata.jsonl",
        target_interactions=FIXTURE / "target_interactions.jsonl",
        target_metadata=FIXTURE / "target_metadata.jsonl",
    )
    # relative paths keep the config hash, and with it report.json, the
    # same in every repetition directory
    config = fixture_config_dict(paths, "run", seeds=[0])
    epochs = spec["epochs"]
    config["gcn"].update(epochs=epochs["gcn"], patience=epochs["gcn"])
    for trainer in ("train", "source_train"):
        config[trainer].update(max_epochs=epochs[trainer], patience=epochs[trainer])
    for section, values in spec.get(step, {}).items():
        config[section].update(values)
    return PipelineConfig.from_dict(config)


def setup(args, spec: dict) -> dict:
    start = perf_counter()
    write_fixture(FIXTURE, FixtureSpec(seed=args.seed, **spec["spec"]))
    if "prime" in spec:
        Pipeline(_config(spec, "prime")).run(STAGES)
    setup_s = perf_counter() - start
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "setup_s": setup_s,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        },
    }


def run(args, spec: dict) -> dict:
    config = _config(spec, "change")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    start = perf_counter()
    status = Pipeline(config).run(STAGES)
    run_s = perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "run_s": run_s,
        "run_cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "status": status,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.write("spans.json")
        uncalled = [name for name, entry in tracer.totals().items() if not entry["calls"]]
        missing = [name for name in spec.get("expected", ENTRY_POINTS) if name in uncalled]
        if missing:
            raise SystemExit(f"entry points expected on this workload recorded no call: {missing}")
        layers = layer_metrics(tracer, STAGES)
        if layers["pipeline.unaccounted_s"] > 0.05 * run_s:
            raise SystemExit(f"stage spans leave {layers['pipeline.unaccounted_s']:.3f}s of the run unaccounted")
        out.update(layers=layers, uncalled=uncalled)
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    src = Path(__file__).resolve().parent.parent / "src"
    if Path(multitap.__file__).resolve().parent.parent != src:
        raise SystemExit(f"multitap imported from {multitap.__file__}, not from {src}")
    spec = workload(args.workload, args.tiny)
    result = setup(args, spec) if args.step == "setup" else run(args, spec)
    Path(args.out).write_text(json.dumps(result, sort_keys=True), encoding="utf-8")


if __name__ == "__main__":
    main()
