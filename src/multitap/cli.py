"""Command-line surface for the pipeline.

Every subcommand maps onto one or more pipeline stages driven by a JSON
config file; `multitap fixture` emits a synthetic two-domain corpus plus a
ready-to-run config.  Failures print a machine-readable error object to
stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from .errors import MultitapError
from .fixtures import FixtureSpec, fixture_config_dict, write_fixture
from .pipeline import STAGES, Pipeline, PipelineConfig
from .util import write_json


def _load_config(path: str) -> PipelineConfig:
    return PipelineConfig.from_json(path)


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """Parse 'lambda=0:2:0.2' into an axis name and an inclusive grid."""
    axis, _, rhs = text.partition("=")
    parts = rhs.split(":")
    if len(parts) != 3:
        raise ValueError(f"sweep '{text}' must look like name=start:stop:step")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or stop < start:
        raise ValueError(f"invalid sweep bounds in '{text}'")
    count = int(round((stop - start) / step)) + 1
    return axis.strip(), [round(start + k * step, 10) for k in range(count)]


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    train = config.train
    updates = {}
    for cli_name, field_name in (
        ("lambda_", "lambda_dpl"),
        ("tau", "tau"),
        ("aggregation", "aggregation"),
        ("transfer", "transfer"),
    ):
        value = getattr(args, cli_name, None)
        if value is not None:
            updates[field_name] = value
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seeds=(args.seed,))
    if updates:
        config = dataclasses.replace(config, train=dataclasses.replace(train, **updates))
    if getattr(args, "offline", False):
        config = dataclasses.replace(
            config, client=dataclasses.replace(config.client, mode="offline")
        )
    return config


def _run_stages(config: PipelineConfig, stages: list[str]) -> dict:
    status = Pipeline(config).run(stages)
    print(json.dumps({"run_dir": config.run_dir, "stages": status}))
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="multitap")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run pipeline stages from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--stages", default=",".join(STAGES))
    run.add_argument("--sweep", action="append", default=[])

    fixture = sub.add_parser("fixture", help="write the synthetic two-domain corpus")
    fixture.add_argument("--out", required=True)
    fixture.add_argument("--users", type=int, default=200)
    fixture.add_argument("--seed", type=int, default=7)

    ingest = sub.add_parser("ingest", help="validate and summarize domains")
    ingest.add_argument("--config", default=None)
    ingest.add_argument("--domain", default=None)
    ingest.add_argument("--interactions", default=None)
    ingest.add_argument("--metadata", default=None)
    ingest.add_argument("--out", default=None)

    split = sub.add_parser("split", help="time-aware split of both domains")
    split.add_argument("--config", required=True)
    split.add_argument("--boundary", default=None)
    split.add_argument("--valid-fraction", type=float, default=None)

    idh = sub.add_parser("idh", help="heterogeneity analysis and report CSVs")
    idh.add_argument("--config", required=True)
    idh.add_argument("--criteria", default=None, help="comma list, e.g. ps,qp,pb")
    idh.add_argument("--labels", default=None, help="comma list, e.g. high,low")

    persona = sub.add_parser("persona", help="build databases, texts, embeddings")
    persona.add_argument(
        "action", nargs="?", default="encode", choices=("build", "generate", "encode")
    )
    persona.add_argument("--config", required=True)
    persona.add_argument("--offline", action="store_true")

    pretrain = sub.add_parser("pretrain", help="pretrain the graph backbone")
    pretrain.add_argument("--config", required=True)
    pretrain.add_argument("--layers", type=int, default=None)
    pretrain.add_argument("--epochs", type=int, default=None)

    train = sub.add_parser("train", help="joint training on the target domain")
    train.add_argument("--config", required=True)
    train.add_argument("--source", default=None, help="domain id to use as the source")
    train.add_argument("--target", default=None, help="domain id to use as the target")
    train.add_argument("--lambda", dest="lambda_", type=float, default=None)
    train.add_argument("--tau", type=float, default=None)
    train.add_argument("--aggregation", choices=("self_attn", "mean", "concat"), default=None)
    train.add_argument(
        "--transfer",
        choices=("doppelganger", "direct_id", "direct_persona", "direct_both", "none"),
        default=None,
    )
    train.add_argument("--seed", type=int, default=None)

    evalp = sub.add_parser("eval", help="full-ranking evaluation of trained models")
    evalp.add_argument("--config", required=True)
    evalp.add_argument("--k", default=None, help="comma list of cutoffs, e.g. 5,10")
    evalp.add_argument("--split", default=None, choices=("valid", "test"))
    evalp.add_argument("--checkpoint", default=None, help="evaluate one checkpoint file")

    ablate = sub.add_parser("ablate", help="aggregation/transfer/hyperparameter grids")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--sweep", action="append", default=[])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "fixture":
            out = Path(args.out)
            spec = FixtureSpec(overlap_users=args.users, seed=args.seed)
            paths = write_fixture(out, spec)
            config = fixture_config_dict(paths, out / "run")
            write_json(out / "config.json", config)
            print(json.dumps({"fixture_dir": str(out), "config": str(out / "config.json")}))
            return 0

        if args.command == "ingest" and args.config is None:
            from .corpus import load_domain

            if not (args.domain and args.interactions and args.metadata):
                raise ValueError(
                    "ingest needs either --config or --domain/--interactions/--metadata"
                )
            ds = load_domain(args.interactions, args.metadata, args.domain)
            summary = {
                "domain": ds.domain_id,
                "users": len(ds.users),
                "items": len(ds.item_ids),
                "interactions": len(ds.interactions),
                "categories": len(ds.categories),
            }
            if args.out:
                write_json(Path(args.out) / f"{ds.domain_id}_ingest.json", summary)
            print(json.dumps(summary))
            return 0

        config = _load_config(args.config)
        if args.command == "run":
            stages = [s.strip() for s in args.stages.split(",") if s.strip()]
            config = _with_sweeps(config, args.sweep)
            _run_stages(config, stages)
            return 0
        if args.command == "ingest":
            _run_stages(config, ["ingest"])
            return 0
        if args.command == "split":
            updates = {}
            if args.boundary is not None:
                updates["boundary"] = args.boundary
            if args.valid_fraction is not None:
                updates["valid_fraction"] = args.valid_fraction
            if updates:
                config = dataclasses.replace(
                    config, split=dataclasses.replace(config.split, **updates)
                )
            _run_stages(config, ["ingest", "split"])
            return 0
        if args.command == "idh":
            if args.labels:
                config = dataclasses.replace(
                    config, report_labels=tuple(args.labels.split(","))
                )
            if args.criteria:
                config = dataclasses.replace(
                    config, criteria=tuple(args.criteria.split(","))
                )
            _run_stages(config, ["ingest", "split", "idh"])
            return 0
        if args.command == "persona":
            config = _apply_overrides(config, args)
            if args.action == "encode":
                _run_stages(config, ["ingest", "split", "idh", "persona"])
                return 0
            _run_stages(config, ["ingest", "split", "idh"])
            pipe = Pipeline(config)
            pipe.stage_persona(phase=args.action)
            print(json.dumps({"run_dir": config.run_dir, "persona_phase": args.action}))
            return 0
        if args.command == "pretrain":
            updates = {}
            if args.layers is not None:
                updates["layers"] = args.layers
            if args.epochs is not None:
                updates["epochs"] = args.epochs
            if updates:
                config = dataclasses.replace(
                    config, gcn=dataclasses.replace(config.gcn, **updates)
                )
            _run_stages(config, ["ingest", "split", "pretrain"])
            return 0
        if args.command == "train":
            if args.source or args.target:
                ids = {config.source.domain_id, config.target.domain_id}
                wanted_source = args.source or config.source.domain_id
                wanted_target = args.target or config.target.domain_id
                if {wanted_source, wanted_target} != ids or wanted_source == wanted_target:
                    raise ValueError(
                        f"--source/--target must name the two configured domains {sorted(ids)}"
                    )
                if wanted_source != config.source.domain_id:
                    config = dataclasses.replace(
                        config, source=config.target, target=config.source
                    )
            config = _apply_overrides(config, args)
            _run_stages(config, ["ingest", "split", "idh", "persona", "pretrain", "train"])
            return 0
        if args.command == "eval":
            if args.k:
                config = dataclasses.replace(
                    config, eval_ks=tuple(int(x) for x in args.k.split(","))
                )
            if args.split:
                config = dataclasses.replace(config, eval_split=args.split)
            if args.checkpoint:
                pipe = Pipeline(config)
                pipe.stage_eval(checkpoint=args.checkpoint)
                report = pipe.checkpoint_report_path(args.checkpoint)
                print(json.dumps({"checkpoint": args.checkpoint, "report": str(report)}))
                return 0
            _run_stages(config, ["ingest", "split", "idh", "persona", "pretrain", "train", "eval"])
            return 0
        if args.command == "ablate":
            config = _with_sweeps(config, args.sweep)
            _run_stages(config, ["ingest", "split", "idh", "persona", "pretrain", "ablate"])
            return 0
        raise ValueError(f"unhandled command {args.command}")
    except MultitapError as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 1
    except (ValueError, OSError) as exc:
        print(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}),
            file=sys.stderr,
        )
        return 2


def _with_sweeps(config: PipelineConfig, sweeps: list[str]) -> PipelineConfig:
    if not sweeps:
        return config
    ablate = dict(config.ablate)
    for sweep in sweeps:
        axis, values = _parse_sweep(sweep)
        ablate[axis] = values
    return dataclasses.replace(config, ablate=ablate)


if __name__ == "__main__":
    sys.exit(main())
