"""Config-driven pipeline: ingest, split, idh, persona, pretrain, train, eval,
ablate.

`NODES` declares each node of the stage graph once: the nodes it consumes, the
key sections it reads and the run-dir artifacts it writes.  A node's cache key
is the content key of those sections plus the keys of its upstream nodes
(`PipelineConfig.stage_keys`).  Ingest hashes its inputs' content, not their
paths, and persona its clients' identities.  Train and ablate consume persona
and pretrain and key each trainer as its runs read it (`trainer_data`), the
source model's trainer and seed included if it transfers.  That model, the leaf
"source", is built only for a run that transfers and keeps only the overlap
users' persona and ID rows such a run reads, at train's persona width; eval and
ablate score every model with no transfer, on the target's own inputs.
Every trainer's output comes from `_runs`, which serves it from the run store
(`cache/runs/`) or trains and stores it under what it reads: a backbone under
the pretrain key and its side, the source model's tables under the source key, a
target run under the pretrain and persona keys, its `trainer_data` and its seed.
So ablate reuses train's runs, and a config changed and changed back trains
nothing the second time.  Nothing prunes the store: it only grows.
Each run's seed comes from `seeds` alone; no other section has one, as the
backbones and the offline encoders seed from constants.
idh and persona share one heterogeneity analysis per train split, so idh
is a leaf: its `criteria` and `report_labels` reach no other key.  Every node's
record, the source model's included, is `<node>/manifest.json`, written last:
it holds the node's key and the size of every file it owns, nothing else,
and the node is done only when both match the disk and every upstream node
is done, so a train-only change reruns train and eval, and a deleted or
truncated file reruns its node alone.  Sizes, not digests: an edit that keeps
a file's size is not noticed.  The run's hash (`Pipeline.hash`, printed as
`config_hash`) is the content key of the node keys, so like them it follows
the inputs' content and the clients' identities, never a path or a
deployment setting.  A node that starts deletes the files its last record
lists (inside the run dir, outside `cache/`) and clears its declared
directories, so a rebuilt node leaves only what the current config writes.
Every record, checkpoint manifest and report holds the key of the stage
that wrote it, and artifacts never embed absolute paths or timestamps, so
a reused artifact is byte-identical to one built cold.  Run dirs are
byte-identical across BLAS thread counts when the BLAS variables are unset
or 1 (the package sets unset ones to 1); a caller that imported numpy
before multitap, or set a variable to another count, keeps its own threads
and its own bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import os
import shutil
import sys
import typing
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from . import idh as idh_mod
from . import persona as persona_mod
from .corpus import (
    DomainDataset,
    InteractionRecord,
    SplitBundle,
    build_domain_pair,
    load_domain,
    time_split,
)
from .diffkit import checkpoint_manifest_path, load_checkpoint, read_container, save_checkpoint
from .errors import DependencyError
from .evaluate import (AVERAGES, EARLY_STOP_K, aggregate_seed_reports, full_ranking_eval,
                       heldout_units, pair_index)
from .gcn import BACKBONE_SEED, GcnConfig, pretrain_id_embeddings
from .idh import METADATA_CRITERIA, Criterion, Label
from .model import ModelInputs, MultiTapModel, TrainConfig, train_target, transfer_parts
from .persona.cache import cache_batch
from .persona.clients import CLIENT_MODES, ClientSettings, build_clients
from .util import atomic_write_text, content_key, file_sha256, read_json, write_json

logger = logging.getLogger(__name__)

SIDES = ("source", "target")


class Node(NamedTuple):
    upstream: tuple[str, ...]  # the nodes it consumes
    reads: tuple[str, ...]  # the key sections (`PipelineConfig.stage_keys`) it hashes
    # run-dir paths it writes, "{side}" and "{seed}" expanded over both domains
    # and the configured seeds; a trailing "/" declares a directory it owns whole
    artifacts: tuple[str, ...]
    stage: bool = True


# Every node in run order.  "source" is the source-domain model: keyed, recorded
# and checked like a stage, but a leaf that train and ablate build only for a run
# that transfers (`_ensure_source_tables`), never requested on its own.
NODES = {
    "ingest": Node((), ("inputs",), ("ingest/summary.json",)),
    "split": Node(("ingest",), ("split",), ("split/{side}.json",)),
    "idh": Node(("split",), ("criteria", "report_labels"),
                ("idh/{side}/bins.json", "idh/{side}/labels.json", "idh/{side}/report/")),
    "persona": Node(("split",), ("clients",), tuple(
        f"persona/{{side}}/{f}" for f in ("db.json", "texts.json", "description.txt",
                                          "user_vectors.ckpt", "item_vectors.ckpt"))),
    "pretrain": Node(("split",), ("gcn",), ("backbone/{side}.ckpt",)),
    "source": Node(("persona", "pretrain"), ("source_train",),  # with the first seed
                   ("model/source_tables.ckpt",), stage=False),
    "train": Node(("persona", "pretrain"), ("train", "seeds"),
                  ("model/target_seed{seed}.ckpt", "model/metrics_seed{seed}.jsonl")),
    "eval": Node(("train",), ("eval_ks", "eval_split", "eval_average"), ("eval/report.json",)),
    "ablate": Node(("persona", "pretrain"), ("ablate", "seeds", "eval_average"),
                   ("ablation/results.csv",)),
}
STAGES = tuple(name for name, node in NODES.items() if node.stage)


def stages_through(stage: str) -> list[str]:
    """`stage` and every stage upstream of it, in run order."""
    needed, pending = set(), [stage]
    while pending:
        node = pending.pop()
        needed.add(node)
        pending.extend(NODES[node].upstream)
    return [s for s in STAGES if s in needed]


@dataclass
class DomainPathsConfig:
    domain_id: str
    interactions: str
    metadata: str


@dataclass
class SplitConfig:
    boundary: int | str = "2019-01-01"  # an ISO date (UTC when it names no zone) or a timestamp
    valid_fraction: float = 0.5

    def __post_init__(self):
        # checked here, not at split time, so a bad value never touches a run dir; the
        # boundary is kept as its UTC timestamp, however it was written
        if isinstance(self.boundary, bool) or not isinstance(self.boundary, int):
            try:
                when = datetime.fromisoformat(str(self.boundary))
            except ValueError:
                raise ValueError("boundary must be an integer timestamp or an ISO date, "
                                 f"got {self.boundary!r}") from None
            self.boundary = int(when.replace(tzinfo=when.tzinfo or timezone.utc).timestamp())
        if not 0.0 < self.valid_fraction < 1.0:
            raise ValueError(f"valid_fraction must lie in (0, 1), got {self.valid_fraction!r}")


# ablate axis -> the type of the TrainConfig field it sets, and the overrides of one of its values
_ABLATE_OVERRIDES = {
    "aggregation": (str, lambda mode: {"aggregation": mode}),
    "transfer": (str, lambda mode: {"transfer": mode}),
    "lambda": (float, lambda lam: {"lambda_dpl": lam}),
    "tau": (float, lambda tau: {"tau": tau}),
}
ABLATE_AXES = tuple(_ABLATE_OVERRIDES)
# a `source_train` field the source model never reads -> what it reads instead
_SOURCE_PINNED = {**dict.fromkeys(("transfer", "lambda_dpl", "tau"),
                                  "always trains with transfer='none'"),
                  "persona_out_dim": "takes train.persona_out_dim, as a transfer needs one width"}
EVAL_SPLITS = ("valid", "test")


def ablation_grid(ablate: dict) -> list[tuple[str, object, dict]]:
    """The (axis, value, TrainConfig overrides) points of an ablate grid, axis by
    axis in `ABLATE_AXES` order; no axes means doppelganger vs none.  A point sets
    its axis alone: a `none` point keeps train's lambda, which it never reads."""
    axes = ablate or {"transfer": ["doppelganger", "none"]}
    return [(axis, value, over(value)) for axis, (_, over) in _ABLATE_OVERRIDES.items()
            for value in axes.get(axis, [])]


@dataclass
class PipelineConfig:
    run_dir: str
    source: DomainPathsConfig
    target: DomainPathsConfig
    cache_dir: str | None = None
    split: SplitConfig = field(default_factory=SplitConfig)
    client: ClientSettings = field(default_factory=ClientSettings)
    gcn: GcnConfig = field(default_factory=GcnConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    # The source prerequisite usually trains hotter and longer than the
    # target run; it only has to produce well-separated persona tables.
    source_train: TrainConfig | None = None
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    eval_ks: tuple[int, ...] = (5, 10)
    eval_split: str = "test"
    eval_average: str = "interaction"
    criteria: tuple[str, ...] = ("ps", "qp", "pb")
    report_labels: tuple[str, ...] = ("high", "low")
    ablate: dict = field(default_factory=dict)

    def __post_init__(self):
        # closed vocabularies: what is checked -> (values, known values, their name)
        vocabularies = {
            "ablate axis": (self.ablate, ABLATE_AXES, "axes"),
            "client mode": ((self.client.mode,), CLIENT_MODES, "modes"),
            "eval_split": ((self.eval_split,), EVAL_SPLITS, "splits"),
            "eval_average": ((self.eval_average,), AVERAGES, "averages"),
            "report label": (self.report_labels, tuple(x.name.lower() for x in reversed(Label)),
                             "labels"),
            "criterion": (self.criteria, tuple(c.value for c in METADATA_CRITERIA), "criteria"),
        }
        for name, (values, known, plural) in vocabularies.items():
            unknown = sorted(set(values) - set(known))
            if unknown:
                raise ValueError(
                    f"unknown {name} {', '.join(map(repr, unknown))}; "
                    f"known {plural}: {', '.join(known)}"
                )
        if not self.seeds or len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be nonempty and distinct, got {list(self.seeds)}")
        if any(seed < 0 for seed in self.seeds):
            raise ValueError(f"seeds must be nonnegative, got {list(self.seeds)}")
        if not self.eval_ks or any(k < 1 for k in self.eval_ks):
            raise ValueError(f"eval_ks must be nonempty, each >= 1, got {list(self.eval_ks)}")
        for axis, values in self.ablate.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"ablate axis '{axis}' must be a list of values, got {values!r}")
        self.ablate = {axis: [_typed(value, _ABLATE_OVERRIDES[axis][0], f"ablate.{axis}[{k}]")
                              for k, value in enumerate(values)]
                       for axis, values in self.ablate.items()}
        distinct = {name: getattr(self, name) for name in ("eval_ks", "criteria", "report_labels")}
        distinct.update((f"ablate.{axis}", values) for axis, values in self.ablate.items())
        for name, values in distinct.items():
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must be distinct, got {list(values)}")
        # every ablate point must make a valid trainer before any stage runs
        for *_, overrides in ablation_grid(self.ablate):
            dataclasses.replace(self.train, **overrides)

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        # before the section is built: a pinned field is never read, whatever its value
        source = obj.get("source_train") if isinstance(obj, dict) else None
        for name, why in _SOURCE_PINNED.items():  # the source model reads none of them
            if isinstance(source, dict) and name in source:
                raise ValueError(f"source_train.{name} is never read: the source model {why}")
        return _from_fields(cls, obj)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json(path))

    def source_train_config(self) -> TrainConfig:
        """The source-domain model's trainer: its own section's, or train's,
        with no transfer and train's persona width, as a transfer attends from
        target persona vectors over the source model's in one persona space."""
        return dataclasses.replace(self.source_train or self.train, transfer="none",
                                   persona_out_dim=self.train.persona_out_dim)

    def _source_data(self) -> dict:
        """The source-domain model's trainer and seed, as JSON data."""
        return {"trainer": self.trainer_data(self.source_train_config()), "seed": self.seeds[0]}

    def trainer_data(self, trainer: TrainConfig) -> dict:
        """`trainer` as its run reads it, as JSON data: `persona_out_dim` resolved;
        one that transfers with the source model's trainer and seed under "source",
        and one that transfers nothing as `transfer: "none"`, with no lambda or tau."""
        data = {**_json_data(trainer),
                "persona_out_dim": trainer.persona_out_dim or self.client.widths[0]}
        if transfer_parts(trainer):
            data["source"] = self._source_data()
        else:
            data["transfer"] = "none"
            del data["lambda_dpl"], data["tau"]
        return data

    def stage_keys(self) -> dict[str, str]:
        """The cache key of every node in `NODES`: the sections it reads plus
        the keys of its upstream nodes.  The sections are the config's own,
        with "train" and each ablate grid point's trainer as `trainer_data` gives
        it, "source_train" standing for the source model's trainer and seed, plus
        "inputs", each side's domain id and the sha256 of its two input files
        (not their paths), and "clients", the persona clients' identities.  A
        missing input raises the loader's FileNotFoundError.  A section no node
        reads is never built."""
        sections = {
            "train": self.trainer_data(self.train),
            "ablate": [(axis, value, self.trainer_data(dataclasses.replace(self.train, **over)))
                       for axis, value, over in ablation_grid(self.ablate)],
            "source_train": self._source_data(),
            "inputs": {side: {"domain_id": spec.domain_id,
                              "interactions": file_sha256(spec.interactions),
                              "metadata": file_sha256(spec.metadata)}
                       for side, spec in zip(SIDES, (self.source, self.target))},
            "clients": [client.identity for client in build_clients(self.client)],
        }
        keys: dict[str, str] = {}
        for name, node in NODES.items():
            keys[name] = content_key({
                "node": name,
                "config": {section: sections[section] if section in sections
                           else _json_data(getattr(self, section)) for section in node.reads},
                "upstream": [keys[u] for u in node.upstream],
            })
        return keys


def _json_data(value):
    """A config value as JSON data: a dataclass as the dict of its fields,
    recursively; any other value as it is."""
    if dataclasses.is_dataclass(value):
        return {f.name: _json_data(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


_KIND_NAMES = {int: "an integer", float: "a number", str: "a string", dict: "an object"}


def _from_fields(cls, obj, path: str = ""):
    """`cls(**obj)`, every field of `obj` first checked against the type `cls`
    declares for it; a dataclass-typed field is built from its object the
    same way.  A field `cls` does not declare, a required one left out, or a
    value of another type raises ValueError naming it (`train.lambda_dpl`), and so
    does a value `cls` itself rejects, as each section's checks lead with the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path or 'the config'} must be an object, got {obj!r}")
    prefix = f"{path}." if path else ""
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(obj) - set(hints))
    if unknown:
        raise ValueError(f"unknown config field {', '.join(repr(prefix + u) for u in unknown)}; "
                         f"known fields: {', '.join(hints)}")
    missing = [f.name for f in dataclasses.fields(cls) if f.name not in obj
               and f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ValueError(f"missing config field {', '.join(repr(prefix + m) for m in missing)}")
    fields = {name: _typed(value, hints[name], prefix + name) for name, value in obj.items()}
    try:
        return cls(**fields)
    except ValueError as error:
        if not prefix:
            raise
        raise ValueError(prefix + str(error)) from error


def _typed(value, hint, path: str):
    """`value` as the config field at `path`, declared `hint`, takes it.  A bool is
    neither an int nor a float; a number field holds a finite float, an int included,
    so `1` and `1.0` key alike; a list stands for a tuple.  A field of two kinds
    (`split.boundary`) is left to its class's own check."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be a list, got {value!r}")
        return tuple(_typed(v, args[0], f"{path}[{k}]") for k, v in enumerate(value))
    kinds = [kind for kind in args or (hint,) if kind is not type(None)]
    if (value is None and len(kinds) < len(args)) or len(kinds) > 1:
        return value
    kind = kinds[0]
    if dataclasses.is_dataclass(kind):
        return _from_fields(kind, value, path)
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"{path} must be {_KIND_NAMES[kind]}, got {value!r}")
    if kind is float and not abs(value) <= sys.float_info.max:  # NaN, an infinity, a huge int
        raise ValueError(f"{path} must be a finite number, got {value!r}")
    return float(value) if kind is float else value


def _records_to_rows(records: Sequence[InteractionRecord]) -> list[list]:
    return [[r.user_id, r.item_id, r.rating, r.timestamp] for r in records]


def _rows_to_records(rows: Sequence[Sequence]) -> tuple[InteractionRecord, ...]:
    """The records of split rows, with one string object per distinct id."""
    ids: dict[str, str] = {}

    def one(value) -> str:
        text = str(value)
        return ids.setdefault(text, text)

    return tuple(InteractionRecord(one(u), one(i), float(r), int(t)) for u, i, r, t in rows)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.run_dir = Path(config.run_dir)
        # each node's run-dir paths as `NODES` declares them, expanded; a directory's ends in "/"
        self._declared = {name: list(dict.fromkeys(a.format(side=w, seed=s) for a in node.artifacts
                                                   for w in SIDES for s in config.seeds))
                          for name, node in NODES.items()}
        cache_dir = config.cache_dir or str(self.run_dir / "cache")
        self.text_cache = persona_mod.JsonCache(Path(cache_dir) / "texts")
        self.vector_cache = persona_mod.JsonCache(Path(cache_dir) / "vectors")
        self.run_cache = persona_mod.JsonCache(Path(cache_dir) / "runs")
        self._domains: dict[str, DomainDataset] = {}
        self._splits: dict[str, SplitBundle] = {}
        self._train_datasets: dict[str, tuple[DomainDataset, dict, dict]] = {}
        # node -> done, within one `run` pass: each record is read and its files
        # listed once per pass; a stage called on its own checks afresh
        self._done: dict[str, bool] | None = None

    # -- bookkeeping --------------------------------------------------------

    @functools.cached_property
    def keys(self) -> dict[str, str]:
        """Every node's key, hashed from the input files on first use."""
        return self.config.stage_keys()

    @functools.cached_property
    def hash(self) -> str:
        """The run's hash: the content key of every node's key."""
        return content_key(self.keys)

    def artifact_paths(self, node: str) -> list[Path]:
        """The run-dir paths `node` declares in `NODES`, expanded."""
        return [self.run_dir / rel for rel in self._declared[node]]

    def _record_path(self, node: str) -> str:
        """The run-dir path of `node`'s record: its key and the files it owns."""
        return f"{node}/manifest.json"

    def _files(self, node: str) -> dict[str, int]:
        """Run-dir path -> size of every file `node` owns, which raises
        FileNotFoundError if one is missing: its declared files, their
        checkpoint manifests and every entry of its declared (flat)
        directories.  Plain `os` calls, as `run` lists a node often."""
        root = os.fspath(self.run_dir)
        owned = []
        for rel in self._declared[node]:
            if rel.endswith("/"):
                owned += [rel + name for name in os.listdir(f"{root}/{rel}")]
            elif rel.endswith(".ckpt"):
                owned += [rel, os.fspath(checkpoint_manifest_path(rel))]
            else:
                owned.append(rel)
        return {rel: os.stat(f"{root}/{rel}").st_size for rel in owned}

    def _is_done(self, node: str) -> bool:
        """True when `node`'s record holds its current key and the files it
        owns, each at its size on disk, and every upstream node is done.
        Within a `run` pass the answer is kept, so a shared upstream record
        is read once."""
        if self._done is not None and node in self._done:
            return self._done[node]
        key = self.keys[node]  # a missing input file raises here
        try:
            record = read_json(os.path.join(self.run_dir, self._record_path(node)))
            done = record.get("stage_key") == key and record.get("files") == self._files(node)
        except (FileNotFoundError, ValueError):  # a file missing, or the record cut short
            done = False
        done = done and all(self._is_done(up) for up in NODES[node].upstream)
        if self._done is not None:
            self._done[node] = done
        return done

    def _mark_done(self, node: str) -> None:
        """Write `node`'s record, after every file it owns."""
        write_json(self.run_dir / self._record_path(node),
                   {"stage": node, "stage_key": self.keys[node], "files": self._files(node)})
        if self._done is not None:
            self._done[node] = True

    def _begin(self, stage: str, node: str | None = None) -> None:
        """Start building `node` (default `stage`): raise unless every
        upstream node is done, then remove the files `node`'s last record
        lists and the record itself, so a build that fails part-way never
        leaves an old key beside new artifacts, and clear the directories it
        owns, so none keeps a file it no longer writes (a seed dropped from
        `seeds`, say)."""
        node = node or stage
        self._require(stage, node)
        if self._done is not None:
            self._done[node] = False
        for path in self._recorded_files(node):
            path.unlink()
        (self.run_dir / self._record_path(node)).unlink(missing_ok=True)
        for path in self.artifact_paths(node):
            if path.is_dir():
                shutil.rmtree(path)

    def _require(self, stage: str, node: str) -> None:
        """Raise a DependencyError naming `stage` unless every node upstream of
        `node` is done."""
        for needed in NODES[node].upstream:
            if not self._is_done(needed):
                raise DependencyError(stage, needed)

    def _recorded_files(self, node: str) -> list[Path]:
        """The files that `node`'s record on disk lists, none if it is missing,
        unreadable or lists none; only those inside the run dir and outside
        its `cache/`, as the record is read from disk."""
        try:
            record = read_json(self.run_dir / self._record_path(node))
        except (OSError, ValueError):  # missing or cut short
            return []
        listed = record.get("files") if isinstance(record, dict) else None
        if not isinstance(listed, (dict, list)):
            return []
        root = self.run_dir.resolve()
        paths = [(root / rel).resolve() for rel in listed if isinstance(rel, str)]
        return [path for path in paths if path.is_relative_to(root) and path.is_file()
                and path.relative_to(root).parts[0] != "cache"]

    # -- shared loaders -----------------------------------------------------

    def _dataset(self, which: str) -> DomainDataset:
        if which not in self._domains:
            spec = getattr(self.config, which)
            self._domains[which] = load_domain(
                spec.interactions, spec.metadata, spec.domain_id
            )
        return self._domains[which]

    def _split(self, which: str) -> SplitBundle:
        if which not in self._splits:
            obj = read_json(self.run_dir / "split" / f"{which}.json")
            self._splits[which] = SplitBundle(
                train=_rows_to_records(obj["train"]),
                valid=_rows_to_records(obj["valid"]),
                test=_rows_to_records(obj["test"]),
            )
        return self._splits[which]

    def _train_dataset(self, which: str) -> tuple[DomainDataset, dict, dict]:
        """The train split of `which` as a dataset, with its bins and labels
        on every metadata criterion, which idh and persona share."""
        if which not in self._train_datasets:
            train_ds = self._dataset(which).restricted_to(self._split(which).train)
            bins = idh_mod.compute_domain_bins(train_ds)
            labels = idh_mod.compute_domain_labels(train_ds, bins)
            self._train_datasets[which] = (train_ds, bins, labels)
        return self._train_datasets[which]

    # -- stages -------------------------------------------------------------

    def stage_ingest(self) -> None:
        self._begin("ingest")
        summary = {which: self._dataset(which).summary() for which in SIDES}
        pair = build_domain_pair(self._dataset("source"), self._dataset("target"))
        summary["overlap_users"] = len(pair.overlap)
        write_json(self.run_dir / "ingest" / "summary.json", summary)
        self._mark_done("ingest")

    def stage_split(self) -> None:
        self._begin("split")
        boundary = self.config.split.boundary
        for which in ("source", "target"):
            ds = self._dataset(which)
            bundle = time_split(ds, boundary, self.config.split.valid_fraction)
            dropped = len(ds.interactions) - (
                len(bundle.train) + len(bundle.valid) + len(bundle.test)
            )
            write_json(
                self.run_dir / "split" / f"{which}.json",
                {
                    "boundary": boundary,
                    "train": _records_to_rows(bundle.train),
                    "valid": _records_to_rows(bundle.valid),
                    "test": _records_to_rows(bundle.test),
                    "dropped": dropped,
                },
            )
            self._splits[which] = bundle
            self._train_datasets.pop(which, None)
        self._mark_done("split")

    def stage_idh(self) -> None:
        self._begin("idh")
        report_labels = [Label[name.upper()] for name in self.config.report_labels]
        criteria = tuple(Criterion(c) for c in self.config.criteria)
        for which in ("source", "target"):
            _, bins, labels = self._train_dataset(which)
            base = self.run_dir / "idh" / which
            write_json(
                base / "bins.json",
                {
                    crit.value: {
                        cat: {
                            "q13": a.q13,
                            "q23": a.q23,
                            "bins": dict(sorted(a.bins.items())),
                        }
                        for cat, a in bins[crit].items()
                    }
                    for crit in criteria
                },
            )
            write_json(
                base / "labels.json",
                {
                    crit.value: {
                        cat: {u: lab.code for u, lab in sorted(per_user.items())}
                        for cat, per_user in labels[crit].items()
                    }
                    for crit in criteria
                },
            )
            matrices = []
            for crit in criteria:
                if len(labels[crit]) >= 2:
                    for lab in report_labels:
                        matrices.append(
                            idh_mod.preservation_matrix(labels[crit], crit, lab)
                        )
            idh_mod.export_idh_report(matrices, base / "report")
        self._mark_done("idh")

    def stage_persona(self, phase: str = "encode") -> None:
        """Build databases, generate texts and encode vectors.

        The labels of all three metadata criteria and the PS price bins come
        from the train split's shared analysis, whatever idh reports on.
        `phase` stops early after "build" (databases only) or "generate"
        (plus texts); only the full "encode" pass marks the stage done.  An
        early phase leaves a done stage alone: its databases and texts are
        on disk already."""
        if phase != "encode" and self._is_done("persona"):
            return
        self._begin("persona")
        generator, persona_encoder, item_encoder = build_clients(self.config.client)
        for which in ("source", "target"):
            train_ds, bins, labels = self._train_dataset(which)
            # no later stage reads the train slice: do not hold it through training
            self._train_datasets.pop(which)
            price_bins = {cat: a.bins for cat, a in bins[Criterion.PS].items()}
            dbs = persona_mod.build_all_persona_dbs(train_ds, labels)
            base = self.run_dir / "persona" / which
            write_json(base / "db.json", [dbs[u].to_json_dict() for u in sorted(dbs)])
            if phase == "build":
                continue
            description = persona_mod.build_domain_description(train_ds, generator, self.text_cache)
            histories = {
                u: persona_mod.recent_history(train_ds, u, price_bins)
                for u in sorted(dbs)
            }
            texts = persona_mod.generate_all_personas(
                dbs, train_ds.domain_id, description, histories, generator, self.text_cache,
                self.config.client.parallelism)
            user_ids = sorted(texts)
            write_json(base / "texts.json", texts)
            atomic_write_text(base / "description.txt", description + "\n")
            if phase == "generate":
                continue
            chunk_size = self.config.client.chunk_size
            vectors = persona_mod.encode_personas(
                [texts[u] for u in user_ids], persona_encoder, chunk_size, self.vector_cache)
            items = [train_ds.items[i] for i in sorted(train_ds.items)]
            item_vectors = persona_mod.encode_item_batch(
                items, description, item_encoder, chunk_size, self.vector_cache)
            save_checkpoint(
                base / "user_vectors.ckpt",
                {"vectors": vectors},
                {
                    "stage_key": self.keys["persona"],
                    "encoder": persona_encoder.identity,
                    "user_ids": user_ids,
                },
            )
            save_checkpoint(
                base / "item_vectors.ckpt",
                {"vectors": item_vectors},
                {
                    "stage_key": self.keys["persona"],
                    "encoder": item_encoder.identity,
                    "item_ids": [m.item_id for m in items],
                },
            )
        if phase == "encode":
            self._mark_done("persona")

    def stage_pretrain(self) -> None:
        self._begin("pretrain")
        for which in SIDES:
            def train():
                result = pretrain_id_embeddings(self._split(which), self.config.gcn,
                                                sorted(self._dataset(which).item_ids))
                table = result.table
                return ({"user_vecs": table.user_vecs, "item_vecs": table.item_vecs},
                        {"user_ids": table.user_ids, "item_ids": table.item_ids,
                         "best_epoch": result.best_epoch, "best_valid_hr": result.best_hr})

            ((vecs, record),) = self._runs(
                [(content_key({"pretrain": self.keys["pretrain"], "side": which}), train)])
            save_checkpoint(self.run_dir / "backbone" / f"{which}.ckpt", vecs, {
                "stage_key": self.keys["pretrain"], "seed": BACKBONE_SEED,
                **{n: record[n] for n in ("user_ids", "item_ids", "best_epoch", "best_valid_hr")}})
        self._mark_done("pretrain")

    # -- model assembly -----------------------------------------------------

    def _model_inputs(self, which: str) -> ModelInputs:
        """The backbone of `which` with its persona and item vectors in
        backbone row order."""
        backbone, ids = load_checkpoint(self.run_dir / "backbone" / f"{which}.ckpt")
        base = self.run_dir / "persona" / which
        personas, pmanifest = load_checkpoint(base / "user_vectors.ckpt")
        semantics, smanifest = load_checkpoint(base / "item_vectors.ckpt")
        urow = {u: k for k, u in enumerate(pmanifest["user_ids"])}
        irow = {i: k for k, i in enumerate(smanifest["item_ids"])}
        return ModelInputs(
            user_ids=ids["user_ids"],
            item_ids=ids["item_ids"],
            persona_inputs=personas["vectors"][[urow[u] for u in ids["user_ids"]]],
            item_semantics=semantics["vectors"][[irow[i] for i in ids["item_ids"]]],
            backbone_user=backbone["user_vecs"],
            backbone_item=backbone["item_vecs"],
        )

    def _ensure_source_tables(self, stage: str) -> None:
        """Unless they are done under the current source key, export the
        overlap-aligned persona and ID tables of the source-domain model (no
        transfer), served from `_runs` or trained; `stage` names the caller
        in a DependencyError."""
        if self._is_done("source"):
            return
        self._begin(stage, "source")
        seed = self.config.seeds[0]

        def train():
            inputs, split = self._model_inputs("source"), self._split("source")
            result = train_target(inputs, split.train, split.valid,
                                  self.config.source_train_config(), seed)
            target_users = {r.user_id for r in self._split("target").train}
            overlap = sorted(set(inputs.user_ids) & target_users)
            rows = [result.model.user_rows[u] for u in overlap]
            return ({"h_users": result.model.user_persona_vectors()[rows],
                     "v_users": inputs.backbone_user[rows]},
                    {"seed": seed, "best_epoch": result.best_epoch, "overlap_users": overlap,
                     "history": result.history})

        ((tables, record),) = self._runs([(self.keys["source"], train)])
        (tables_path,) = self.artifact_paths("source")
        save_checkpoint(tables_path, tables, {
            "stage_key": self.keys["source"],
            **{n: record[n] for n in ("seed", "best_epoch", "overlap_users")}})
        self._mark_done("source")

    def _target_inputs_with_transfer(self) -> ModelInputs:
        (tables_path,) = self.artifact_paths("source")
        arrays, manifest = load_checkpoint(tables_path)
        return dataclasses.replace(
            self._model_inputs("target"), overlap_users=manifest["overlap_users"],
            source_user_personas=arrays["h_users"], source_user_backbone=arrays["v_users"])

    def _train_one(self, inputs: ModelInputs, seed: int, overrides: dict | None = None):
        cfg = dataclasses.replace(self.config.train, **(overrides or {}))
        split = self._split("target")
        return train_target(inputs, split.train, split.valid, cfg, seed)

    def _runs(self, entries: Sequence[tuple[str, Callable[[], tuple[dict, dict]]]]) -> list:
        """Each (key, train) entry's tensors and record, served from the run
        store or made by `train()` and stored, the new ones in one shard.  A
        record lists its tensors under "params"; an entry whose tensors
        cannot all be read (its shard cut short) is trained again."""
        keys = [key for key, _ in entries]
        with cache_batch(self.run_cache, keys) as (stored, new):
            served = [f"{k}/{n}" for k in set(keys) & stored.keys() for n in stored[k]["params"]]
            if served:  # the stored entries' tensors, in one more read
                stored.update(self.run_cache.get(served) or {})
            for key, train in entries:
                trained = key not in stored or any(f"{key}/{n}" not in stored
                                                   for n in stored[key]["params"])
                if trained:
                    tensors, record = train()
                    new[key] = {"params": sorted(tensors), **record}
                    new.update((f"{key}/{n}", v) for n, v in tensors.items())
                    stored.update(new)
                logger.info("run %s %s", key[:12], "trained" if trained else "served")
        return [({n: stored[f"{key}/{n}"] for n in stored[key]["params"]}, stored[key])
                for key in keys]

    def _target_runs(self, stage: str, points: Sequence[tuple[int, dict]]) -> list:
        """Each (seed, overrides) point's seed, trainer, parameters and run record
        ("history", "best_epoch") from `_runs`, keyed by what the run reads: pretrain
        and persona keys, `trainer_data`, seed.  A run trains on the target model's
        inputs, with the source model's tables (`stage` builds them) only if a point
        transfers."""
        def train(seed, overrides):
            result = self._train_one(inputs, seed, overrides)
            return result.model.store.params, {"history": result.history,
                                               "best_epoch": result.best_epoch}

        configs = [dataclasses.replace(self.config.train, **over) for _, over in points]
        if any(map(transfer_parts, configs)):
            self._ensure_source_tables(stage)
            inputs = self._target_inputs_with_transfer()
        else:
            inputs = self._model_inputs("target")
        keys = [content_key({"pretrain": self.keys["pretrain"], "persona": self.keys["persona"],
                             "run": self.config.trainer_data(c), "seed": s})
                for c, (s, _) in zip(configs, points)]
        runs = self._runs([(key, functools.partial(train, *p)) for key, p in zip(keys, points)])
        return [(s, cfg, *run) for cfg, (s, _), run in zip(configs, points, runs)]

    def _score(self, inputs: ModelInputs, trainer: TrainConfig, params: dict | Path,
               ks: Sequence[int], which_split: str = "test") -> dict:
        """`_test_report` of the target model built on the target's own `inputs`
        under `trainer` with no transfer, which no parameter or score reads,
        holding a stored run's `params` (which fit: the run's key holds its
        trainer), or the tensors of the checkpoint at that path (its manifest is
        not read, as loading replaces every parameter a seed draws); a
        checkpoint that does not fit raises ValueError naming it."""
        arrays = params if isinstance(params, dict) else read_container(params)[0]
        model = MultiTapModel(inputs, dataclasses.replace(trainer, transfer="none"))
        try:
            model.store.load_params(arrays)
        except (KeyError, ValueError) as exc:  # a tensor missing, unknown or of another shape
            raise ValueError(f"checkpoint {params} does not fit the configured model: "
                             f"{exc.args[0]}") from exc
        return self._test_report(model, ks, which_split)

    def _test_report(
        self, model: MultiTapModel, ks: Sequence[int], which_split: str = "test"
    ) -> dict:
        split = self._split("target")
        heldout = split.test if which_split == "test" else split.valid
        _, observed = pair_index(split.train, model.user_rows, model.item_rows)
        units = heldout_units(model.user_rows, model.inputs.item_ids, observed, heldout)
        return full_ranking_eval(model.score_matrix(), units, ks, self.config.eval_average)

    def stage_train(self) -> None:
        self._begin("train")
        runs = self._target_runs("train", [(s, {}) for s in self.config.seeds])
        for seed, _, params, run in runs:
            save_checkpoint(self.run_dir / "model" / f"target_seed{seed}.ckpt", params,
                            {"stage_key": self.keys["train"], "seed": seed,
                             "best_epoch": run["best_epoch"]})
            lines = [json.dumps(row, sort_keys=True) for row in run["history"]]
            atomic_write_text(self.run_dir / "model" / f"metrics_seed{seed}.jsonl",
                              "\n".join(lines) + "\n")
        self._mark_done("train")

    def checkpoint_report_path(self, checkpoint: str | Path) -> Path:
        return self.run_dir / "eval" / f"checkpoint_{Path(checkpoint).stem}.json"

    def stage_eval(self, checkpoint: str | None = None) -> None:
        """Evaluate every seed's target model into `eval/report.json`; with
        `checkpoint`, evaluate that one file into `checkpoint_report_path`
        instead, which leaves the stage's done state alone."""
        if checkpoint is None:
            self._begin("eval")
        else:  # the checkpoint is scored on the personas and backbone that train reads
            self._require("eval", "train")
        inputs = self._model_inputs("target")
        ks = list(self.config.eval_ks)
        which_split = self.config.eval_split
        if checkpoint is not None:
            report = self._score(inputs, self.config.train, Path(checkpoint), ks, which_split)
            report.update(
                stage_key=self.keys["eval"], split=which_split, checkpoint=Path(checkpoint).name
            )
            write_json(self.checkpoint_report_path(checkpoint), report)
            return
        reports = [self._score(inputs, self.config.train,
                               self.run_dir / "model" / f"target_seed{seed}.ckpt", ks, which_split)
                   for seed in self.config.seeds]
        aggregated = aggregate_seed_reports(reports, ks)
        aggregated["stage_key"] = self.keys["eval"]
        aggregated["split"] = which_split
        write_json(self.run_dir / "eval" / "report.json", aggregated)
        self._mark_done("eval")

    def stage_ablate(self) -> None:
        self._begin("ablate")
        k = EARLY_STOP_K
        grid = [(axis, value, seed, over) for axis, value, over in ablation_grid(self.config.ablate)
                for seed in self.config.seeds]
        runs = self._target_runs("ablate", [(seed, over) for *_, seed, over in grid])
        inputs = self._model_inputs("target")
        lines = [f"axis,value,seed,hr@{k},ndcg@{k}"]
        for (*row, _), (_, cfg, params, _) in zip(grid, runs):
            report = self._score(inputs, cfg, params, [k])
            lines.append(",".join(map(str, (*row, report["HR"][k], report["NDCG"][k]))))
        atomic_write_text(self.run_dir / "ablation" / "results.csv", "\n".join(lines) + "\n")
        self._mark_done("ablate")

    # -- runner ---------------------------------------------------------------

    def run(self, stages: Sequence[str]) -> dict[str, str]:
        unknown = [s for s in stages if s not in STAGES]
        if unknown:
            raise ValueError(f"unknown stages: {unknown}")
        status: dict[str, str] = {}
        self._done = {}
        try:
            for stage in STAGES:
                if stage not in stages:
                    continue
                if self._is_done(stage):
                    logger.info("stage %s cached", stage)
                    status[stage] = "cached"
                    continue
                logger.info("stage %s running", stage)
                getattr(self, f"stage_{stage}")()
                status[stage] = "ran"
        finally:
            self._done = None
        return status
