"""Command-line surface for the pipeline.

Every stage subcommand runs its stage plus the stages upstream of it
(`pipeline.stages_through`) from a JSON config file; `multitap fixture` emits
a synthetic two-domain corpus plus a ready-to-run config.  The `dest` of an
override flag names the config field it sets, either a top-level field
(`eval_ks`) or `section.field` (`train.lambda_dpl`); its `type` converts the
text to the field's value, and `_apply_overrides` sets every flag the user
gave.  Failures, usage errors included, print a machine-readable error
object to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from .errors import MultitapError
from .fixtures import FixtureSpec, fixture_config_dict, write_fixture
from .model import AGGREGATION_MODES, TRANSFER_MODES
from .pipeline import EVAL_SPLITS, STAGES, Pipeline, PipelineConfig, stages_through
from .util import write_json

_FIELDS = {f.name for f in dataclasses.fields(PipelineConfig)}


def _print_error(kind: str, message: str) -> None:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)


class _JsonErrorParser(argparse.ArgumentParser):
    """Reports a usage error (an unknown flag, a value its `type` rejects)
    as the JSON error object; subcommand parsers inherit the class."""

    def error(self, message: str):
        _print_error("ArgumentError", f"{self.prog}: {message}")
        self.exit(2)


def _parse_sweep(text: str) -> tuple[str, list[float]]:
    """Parse 'lambda=0:2:0.2' into an axis name and the grid from start by
    step that ends at or before stop; a malformed text, a non-finite bound
    or step, a step that is not positive, stop < start, or a grid count that
    overflows raises ValueError."""
    axis, _, rhs = text.partition("=")
    start, stop, step = (float(p) for p in rhs.split(":"))
    if not (0 < step < math.inf and start <= stop and math.isfinite(start + (stop - start) / step)):
        raise ValueError(f"invalid sweep bounds in '{text}'")
    count = math.floor((stop - start) / step + 1e-9) + 1
    return axis.strip(), [round(start + k * step, 10) for k in range(count)]


def _comma_list(convert=str):
    """A flag type for 'a,b,c'; '' is a list of one empty entry."""

    def comma_list(text: str) -> tuple:
        return tuple(convert(x) for x in text.split(","))

    return comma_list


def _stage_list(text: str) -> list[str]:
    """'a, b,c' as its stage names; a list with none raises ValueError."""
    stages = [s.strip() for s in text.split(",") if s.strip()]
    if not stages:
        raise ValueError(text)
    return stages


def _expecting(convert, expected: str):
    """A flag type whose usage error names the form it expects; NaN and infinities fail too."""

    def parse(text: str):
        try:
            if isinstance(value := convert(text), float) and not math.isfinite(value):
                raise ValueError(text)
            return value
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return parse


def _at_least(least: int):
    """An integer converter that rejects a value below `least`."""

    def convert(text: str) -> int:
        if (value := int(text)) < least:
            raise ValueError(text)
        return value

    return convert


_INTEGER = _expecting(int, "an integer")
_NUMBER = _expecting(float, "a number")
_SWEEP = _expecting(_parse_sweep, "a sweep like name=start:stop:step")


def _apply_overrides(config: PipelineConfig, args: argparse.Namespace) -> PipelineConfig:
    """Set the config field named by the dest of every override flag given."""
    for dest, value in vars(args).items():
        if dest.partition(".")[0] not in _FIELDS or value is None or value == []:
            continue
        if dest == "ablate":  # --sweep: (axis, grid) pairs
            value = {**config.ablate, **dict(value)}
        if "." in dest:
            dest, name = dest.split(".")
            value = dataclasses.replace(getattr(config, dest), **{name: value})
        config = dataclasses.replace(config, **{dest: value})
    return config


def _run_stages(config: PipelineConfig, stages: list[str], persona_phase: str | None = None):
    """Run `stages`, then persona up to `persona_phase` if one is given, and
    print one JSON object of what ran."""
    pipe = Pipeline(config)
    out = {"run_dir": config.run_dir, "config_hash": pipe.hash, "stages": pipe.run(stages)}
    if persona_phase:
        pipe.stage_persona(phase=persona_phase)
        out["persona_phase"] = persona_phase
    print(json.dumps(out))


def build_parser() -> argparse.ArgumentParser:
    parser = _JsonErrorParser(prog="multitap")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run pipeline stages from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--stages", default=",".join(STAGES),
                     type=_expecting(_stage_list, "a nonempty comma list of stages"))
    run.add_argument("--sweep", dest="ablate", metavar="SWEEP", action="append", default=[],
                     type=_SWEEP)

    fixture = sub.add_parser("fixture", help="write the synthetic two-domain corpus")
    fixture.add_argument("--out", required=True)
    fixture.add_argument("--users", type=_expecting(_at_least(1), "an integer >= 1"), default=200)
    fixture.add_argument("--seed", type=_expecting(_at_least(0), "an integer >= 0"), default=7)

    ingest = sub.add_parser("ingest", help="validate and summarize domains")
    ingest.add_argument("--config", default=None)
    ingest.add_argument("--domain", default=None)
    ingest.add_argument("--interactions", default=None)
    ingest.add_argument("--metadata", default=None)
    ingest.add_argument("--out", default=None)

    split = sub.add_parser("split", help="time-aware split of both domains")
    split.add_argument("--config", required=True)
    split.add_argument("--boundary", dest="split.boundary", default=None)
    split.add_argument("--valid-fraction", dest="split.valid_fraction", type=_NUMBER, default=None)

    idh = sub.add_parser("idh", help="heterogeneity analysis and report CSVs")
    idh.add_argument("--config", required=True)
    idh.add_argument("--criteria", type=_comma_list(), default=None,
                     help="comma list, e.g. ps,qp,pb")
    idh.add_argument("--labels", dest="report_labels", type=_comma_list(), default=None,
                     help="comma list, e.g. high,low")

    persona = sub.add_parser("persona", help="build databases, texts, embeddings")
    persona.add_argument(
        "action", nargs="?", default="encode", choices=("build", "generate", "encode")
    )
    persona.add_argument("--config", required=True)
    persona.add_argument("--offline", dest="client.mode", action="store_const", const="offline")

    pretrain = sub.add_parser("pretrain", help="pretrain the graph backbone")
    pretrain.add_argument("--config", required=True)
    pretrain.add_argument("--layers", dest="gcn.layers", type=_INTEGER, default=None)
    pretrain.add_argument("--epochs", dest="gcn.epochs", type=_INTEGER, default=None)

    train = sub.add_parser("train", help="joint training on the target domain")
    train.add_argument("--config", required=True)
    train.add_argument("--lambda", dest="train.lambda_dpl", type=_NUMBER, default=None)
    train.add_argument("--tau", dest="train.tau", type=_NUMBER, default=None)
    train.add_argument("--aggregation", dest="train.aggregation", choices=AGGREGATION_MODES,
                       default=None)
    train.add_argument("--transfer", dest="train.transfer", choices=TRANSFER_MODES, default=None)
    train.add_argument("--seed", dest="seeds", default=None,
                       type=_expecting(lambda text: (int(text),), "an integer seed"))

    evalp = sub.add_parser("eval", help="full-ranking evaluation of trained models")
    evalp.add_argument("--config", required=True)
    evalp.add_argument("--k", dest="eval_ks", default=None,
                       type=_expecting(_comma_list(int), "a comma list of integers"),
                       help="comma list of cutoffs, e.g. 5,10")
    evalp.add_argument("--split", dest="eval_split", default=None, choices=EVAL_SPLITS)
    evalp.add_argument("--checkpoint", default=None, help="evaluate one checkpoint file")

    ablate = sub.add_parser("ablate", help="aggregation/transfer/hyperparameter grids")
    ablate.add_argument("--config", required=True)
    ablate.add_argument("--sweep", dest="ablate", metavar="SWEEP", action="append", default=[],
                        type=_SWEEP)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ingest" and args.config is not None:
        standalone = [f"--{name}" for name in ("domain", "interactions", "metadata", "out")
                      if getattr(args, name) is not None]
        if standalone:
            parser.error(f"ingest --config takes none of {', '.join(standalone)}")
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
                parser.error("ingest needs either --config or --domain/--interactions/--metadata")
            ds = load_domain(args.interactions, args.metadata, args.domain)
            summary = {**ds.summary(), "categories": len(ds.categories)}
            if args.out:
                write_json(Path(args.out) / f"{ds.domain_id}_ingest.json", summary)
            print(json.dumps(summary))
            return 0

        config = _apply_overrides(PipelineConfig.from_json(args.config), args)
        if args.command == "eval" and args.checkpoint:
            pipe = Pipeline(config)
            pipe.stage_eval(checkpoint=args.checkpoint)
            report = pipe.checkpoint_report_path(args.checkpoint)
            print(json.dumps({"checkpoint": args.checkpoint, "report": str(report)}))
            return 0
        if args.command == "persona" and args.action != "encode":
            _run_stages(config, stages_through("persona")[:-1], persona_phase=args.action)
            return 0
        _run_stages(config, args.stages if args.command == "run" else stages_through(args.command))
        return 0
    except MultitapError as exc:
        _print_error(type(exc).__name__, str(exc))
        return 1
    except (ValueError, OSError) as exc:
        _print_error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
