"""Config-driven pipeline: ingest, split, idh, persona, pretrain, train, eval,
ablate.

`NODES` declares each node of the stage graph once: the nodes it consumes,
the key sections it reads and the run-dir artifacts it writes.  A node's
cache key is the content key of those sections plus the keys of its upstream
nodes (`PipelineConfig.stage_keys`).  Ingest's sections include the sha256 of
each input file, so an input edited in place changes every key.  The
source-domain model that train and ablate build on is keyed the same way, as
the node "source".  A node counts as done only when its manifest records its
current key, every artifact it declares exists and every upstream node is
done, so a train-only change reruns train and eval and serves everything
upstream from disk.  A declared directory is cleared when its node starts,
so a rebuilt one holds only what the current config writes.  "Done" checks
that artifacts exist, not their bytes: one edited or truncated in place is
not noticed.  Every stage manifest, checkpoint manifest and report records
the key of the stage that wrote it, and artifacts never embed absolute paths
or timestamps, so a reused artifact is byte-identical to one built cold.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import logging
import shutil
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

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
from .diffkit import checkpoint_manifest_path, load_checkpoint, save_checkpoint
from .errors import DependencyError
from .evaluate import AVERAGES, aggregate_seed_reports, full_ranking_eval, train_items_by_user
from .gcn import GcnConfig, IdEmbeddingTable, pretrain_id_embeddings
from .idh import METADATA_CRITERIA, Criterion, Label
from .model import (
    ModelInputs,
    MultiTapModel,
    TrainConfig,
    train_target,
)
from .persona.clients import CLIENT_MODES, ClientSettings
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


# Every node in run order.  "source" is the source-domain model: keyed and
# checked like a stage, but built inside train and ablate
# (`_ensure_source_tables`), never requested on its own; its record is the
# manifest of its last artifact, which is written last.
NODES = {
    "ingest": Node((), ("source", "target", "inputs"), ("ingest/summary.json",)),
    "split": Node(("ingest",), ("split",), ("split/{side}.json",)),
    "idh": Node(("split",), ("criteria", "report_labels"),
                ("idh/{side}/bins.json", "idh/{side}/labels.json", "idh/{side}/report/")),
    "persona": Node(("idh",), ("client",), tuple(
        f"persona/{{side}}/{f}" for f in ("db.json", "texts.json", "description.txt",
                                          "user_vectors.ckpt", "item_vectors.ckpt"))),
    "pretrain": Node(("split",), ("gcn",), ("backbone/{side}.ckpt",)),
    "source": Node(("persona", "pretrain"), ("source_train",),
                   ("model/source_model.ckpt", "model/source_tables.ckpt"), stage=False),
    "train": Node(("source",), ("train", "seeds"),
                  ("model/target_seed{seed}.ckpt", "model/metrics_seed{seed}.jsonl")),
    "eval": Node(("train",), ("eval_ks", "eval_split", "eval_average"), ("eval/report.json",)),
    "ablate": Node(("source",), ("ablate", "train", "seeds", "eval_average"),
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


def _parse_boundary(value) -> int:
    """An integer timestamp (not a bool) or an ISO date, as a UTC timestamp."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        dt = datetime.fromisoformat(str(value))
    except ValueError:
        raise ValueError(
            f"split boundary must be an integer timestamp or an ISO date, got {value!r}"
        ) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


@dataclass
class DomainPathsConfig:
    domain_id: str
    interactions: str
    metadata: str


@dataclass
class SplitConfig:
    boundary: str | int = "2019-01-01"
    valid_fraction: float = 0.5

    def __post_init__(self):
        # checked here, not at split time, so a bad value never touches a run dir
        _parse_boundary(self.boundary)
        if not 0.0 < self.valid_fraction < 1.0:
            raise ValueError(f"valid_fraction must lie in (0, 1), got {self.valid_fraction!r}")

    @property
    def boundary_ts(self) -> int:
        return _parse_boundary(self.boundary)


# ablate axis -> the TrainConfig overrides of one of its values
_ABLATE_OVERRIDES = {
    "aggregation": lambda mode: {"aggregation": mode},
    "transfer": lambda mode: {"transfer": mode, "lambda_dpl": 0.0} if mode == "none"
    else {"transfer": mode},
    "lambda": lambda lam: {"lambda_dpl": float(lam)},
    "tau": lambda tau: {"tau": float(tau)},
}
ABLATE_AXES = tuple(_ABLATE_OVERRIDES)
EVAL_SPLITS = ("valid", "test")


def ablation_grid(ablate: dict) -> list[tuple[str, object, dict]]:
    """The (axis, value, TrainConfig overrides) points of an ablate grid,
    axis by axis in `ABLATE_AXES` order; no axes means doppelganger vs none."""
    axes = ablate or {"transfer": ["doppelganger", "none"]}
    return [(axis, value, over(value)) for axis, over in _ABLATE_OVERRIDES.items()
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
        if not self.eval_ks or any(k < 1 for k in self.eval_ks):
            raise ValueError(f"eval_ks must be nonempty, each >= 1, got {list(self.eval_ks)}")
        for axis, values in self.ablate.items():
            if not isinstance(values, (list, tuple)):
                raise ValueError(f"ablate axis '{axis}' must be a list of values, got {values!r}")
        # every ablate point must make a valid trainer before any stage runs
        for _, _, overrides in ablation_grid(self.ablate):
            dataclasses.replace(self.train, **overrides)

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineConfig":
        obj = dict(obj)
        obj["source"] = DomainPathsConfig(**obj["source"])
        obj["target"] = DomainPathsConfig(**obj["target"])
        if "split" in obj:
            obj["split"] = SplitConfig(**obj["split"])
        if "client" in obj:
            obj["client"] = ClientSettings(**obj["client"])
        if "gcn" in obj:
            obj["gcn"] = GcnConfig(**obj["gcn"])
        if "train" in obj:
            obj["train"] = TrainConfig(**obj["train"])
        if obj.get("source_train") is not None:
            obj["source_train"] = TrainConfig(**obj["source_train"])
        for key in ("seeds", "eval_ks", "report_labels", "criteria"):
            if key in obj:
                obj[key] = tuple(obj[key])
        return cls(**obj)

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json(path))

    def semantic_dict(self) -> dict:
        """Everything that affects outputs; run/cache locations excluded."""
        obj = dataclasses.asdict(self)
        obj.pop("run_dir")
        obj.pop("cache_dir")
        return obj

    def config_hash(self) -> str:
        return content_key(self.semantic_dict())

    def source_train_config(self) -> TrainConfig:
        """The source-domain model's trainer: no transfer, the first seed."""
        base = self.source_train or self.train
        return dataclasses.replace(base, transfer="none", lambda_dpl=0.0, seed=self.seeds[0])

    def stage_keys(self) -> dict[str, str]:
        """The cache key of every node in `NODES`: the sections it reads plus
        the keys of its upstream nodes.  The sections are the config's own,
        with "source_train" standing for the source model's trainer, plus
        "inputs": the sha256 of each input file, so that an input edited in
        place changes every key.  A missing input raises the loader's
        FileNotFoundError."""
        sections = self.semantic_dict()
        sections["source_train"] = dataclasses.asdict(self.source_train_config())
        sections["inputs"] = {
            f"{side}.{kind}": file_sha256(getattr(getattr(self, side), kind))
            for side in SIDES for kind in ("interactions", "metadata")
        }
        keys: dict[str, str] = {}
        for name, node in NODES.items():
            keys[name] = content_key({
                "node": name,
                "config": {section: sections[section] for section in node.reads},
                "upstream": [keys[u] for u in node.upstream],
            })
        return keys


def _records_to_rows(records: Sequence[InteractionRecord]) -> list[list]:
    return [[r.user_id, r.item_id, r.rating, r.timestamp] for r in records]


def _rows_to_records(rows: Sequence[Sequence]) -> tuple[InteractionRecord, ...]:
    return tuple(InteractionRecord(str(u), str(i), float(r), int(t)) for u, i, r, t in rows)


class Pipeline:
    def __init__(self, config: PipelineConfig):
        self.config = config
        self.run_dir = Path(config.run_dir)
        # whole-config hash; run and cache locations do not enter it
        self.hash = config.config_hash()
        # `_is_done` results, memoised only while `run` executes
        self._done: dict[str, bool] | None = None
        cache_dir = config.cache_dir or str(self.run_dir / "cache")
        self.text_cache = persona_mod.JsonCache(Path(cache_dir) / "texts")
        self.vector_cache = persona_mod.JsonCache(Path(cache_dir) / "vectors")
        self._domains: dict[str, DomainDataset] = {}
        self._splits: dict[str, SplitBundle] = {}
        self._train_datasets: dict[str, DomainDataset] = {}

    # -- bookkeeping --------------------------------------------------------

    @functools.cached_property
    def keys(self) -> dict[str, str]:
        """Every node's key, hashed from the input files on first use."""
        return self.config.stage_keys()

    def artifact_paths(self, node: str) -> list[Path]:
        """The run-dir paths `node` declares in `NODES`, expanded."""
        rels = (a.format(side=w, seed=s) for a in NODES[node].artifacts
                for w in SIDES for s in self.config.seeds)
        return [self.run_dir / rel for rel in dict.fromkeys(rels)]

    def _record_path(self, node: str) -> Path:
        """The manifest that records `node`'s key."""
        if NODES[node].stage:
            return self.run_dir / node / "manifest.json"
        return checkpoint_manifest_path(self.artifact_paths(node)[-1])

    def _is_done(self, node: str) -> bool:
        """True when `node`'s manifest records its current key, its artifacts
        exist and every upstream node is done."""
        if self._done is not None and node in self._done:
            return self._done[node]
        record = self._record_path(node)
        paths = self.artifact_paths(node)
        paths += [checkpoint_manifest_path(p) for p in paths if p.suffix == ".ckpt"]
        done = (
            record.exists()
            and read_json(record).get("stage_key") == self.keys[node]
            and all(p.exists() for p in paths)
            and all(self._is_done(up) for up in NODES[node].upstream)
        )
        if self._done is not None:
            self._done[node] = done
        return done

    def _set_done(self, node: str) -> None:
        if self._done is not None:
            self._done[node] = True

    def _mark_done(self, stage: str, extra: dict | None = None) -> None:
        manifest = {"stage": stage, "stage_key": self.keys[stage]}
        if extra:
            manifest.update(extra)
        write_json(self._record_path(stage), manifest)
        self._set_done(stage)

    def _begin(self, stage: str, node: str | None = None) -> None:
        """Start building `node` (default `stage`): raise unless every
        upstream node is done, then drop `node`'s record, so a build that
        fails part-way never leaves an old key beside new artifacts, and
        clear the directories it owns, so none keeps a file it no longer
        writes."""
        node = node or stage
        for needed in NODES[node].upstream:
            if not self._is_done(needed):
                raise DependencyError(stage, needed)
        self._record_path(node).unlink(missing_ok=True)
        for path in self.artifact_paths(node):
            if path.is_dir():
                shutil.rmtree(path)

    # -- shared loaders -----------------------------------------------------

    def _domain_config(self, which: str) -> DomainPathsConfig:
        return self.config.source if which == "source" else self.config.target

    def _dataset(self, which: str) -> DomainDataset:
        if which not in self._domains:
            spec = self._domain_config(which)
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
                boundary_time=obj["boundary"],
            )
        return self._splits[which]

    def _train_dataset(self, which: str) -> DomainDataset:
        if which not in self._train_datasets:
            self._train_datasets[which] = self._dataset(which).restricted_to(
                self._split(which).train
            )
        return self._train_datasets[which]

    def _clients(self):
        cs = self.config.client
        if cs.mode == "offline":
            return (
                persona_mod.TemplateGenerator(),
                persona_mod.HashingEncoder(cs.persona_dim, cs.seed),
                persona_mod.HashingEncoder(cs.item_dim, cs.seed),
            )
        return (
            persona_mod.RemoteGenerator(cs),
            persona_mod.RemoteEncoder(cs, cs.remote_persona_dim),
            persona_mod.RemoteEncoder(cs, cs.remote_item_dim),
        )

    # -- stages -------------------------------------------------------------

    def stage_ingest(self) -> None:
        self._begin("ingest")
        summary = {}
        for which in ("source", "target"):
            ds = self._dataset(which)
            summary[which] = {
                "domain": ds.domain_id,
                "users": len(ds.users),
                "items": len(ds.item_ids),
                "interactions": len(ds.interactions),
            }
        pair = build_domain_pair(self._dataset("source"), self._dataset("target"))
        summary["overlap_users"] = len(pair.overlap)
        write_json(self.run_dir / "ingest" / "summary.json", summary)
        self._mark_done("ingest", {"overlap_users": len(pair.overlap)})

    def stage_split(self) -> None:
        self._begin("split")
        boundary = self.config.split.boundary_ts
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
            train_ds = self._train_dataset(which)
            bins = idh_mod.compute_domain_bins(train_ds, criteria)
            labels = idh_mod.compute_domain_labels(train_ds, bins, criteria)
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
                        for cat, a in per_cat.items()
                    }
                    for crit, per_cat in bins.items()
                },
            )
            write_json(
                base / "labels.json",
                {
                    crit.value: {
                        cat: {u: lab.code for u, lab in sorted(per_user.items())}
                        for cat, per_user in per_cat.items()
                    }
                    for crit, per_cat in labels.items()
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

    def _load_idh(self, which: str):
        """What persona reads of idh: the PS bin maps `{category: {item:
        bin}}` and the label maps of every criterion."""
        base = self.run_dir / "idh" / which
        raw_bins = read_json(base / "bins.json").get(Criterion.PS.value, {})
        price_bins = {cat: entry["bins"] for cat, entry in raw_bins.items()}
        raw_labels = read_json(base / "labels.json")
        labels = {
            Criterion(c): {
                cat: {u: Label.from_code(code) for u, code in per_user.items()}
                for cat, per_user in per_cat.items()
            }
            for c, per_cat in raw_labels.items()
        }
        return price_bins, labels

    def stage_persona(self, phase: str = "encode") -> None:
        """Build databases, generate texts and encode vectors.

        `phase` stops early after "build" (databases only) or "generate"
        (plus texts); only the full "encode" pass marks the stage done.  An
        early phase leaves a done stage alone: its databases and texts are
        on disk already."""
        if phase != "encode" and self._is_done("persona"):
            return
        self._begin("persona")
        generator, persona_encoder, item_encoder = self._clients()
        for which in ("source", "target"):
            train_ds = self._train_dataset(which)
            # no later stage reads the train slice: do not hold it through training
            self._train_datasets.pop(which)
            price_bins, labels = self._load_idh(which)
            dbs = persona_mod.build_all_persona_dbs(train_ds, labels)
            base = self.run_dir / "persona" / which
            write_json(base / "db.json", [dbs[u].to_json_dict() for u in sorted(dbs)])
            if phase == "build":
                continue
            assets = persona_mod.build_prompt_assets(train_ds, generator)
            histories = {
                u: persona_mod.recent_history(train_ds, u, price_bins)
                for u in sorted(dbs)
            }
            texts = persona_mod.generate_all_personas(
                dbs,
                assets,
                histories,
                generator,
                cache=self.text_cache,
                parallelism=self.config.client.parallelism,
            )
            user_ids = sorted(texts)
            write_json(
                base / "texts.json",
                {u: {c.value: t for c, t in texts[u].texts.items()} for u in user_ids},
            )
            atomic_write_text(base / "description.txt", assets.domain_description + "\n")
            if phase == "generate":
                continue
            vectors = persona_mod.encode_personas(
                [texts[u] for u in user_ids], persona_encoder, cache=self.vector_cache
            )
            items = [train_ds.items[i] for i in sorted(train_ds.items)]
            item_vectors = persona_mod.encode_item_batch(
                items,
                assets.domain_description,
                item_encoder,
                chunk_size=self.config.client.chunk_size,
                cache=self.vector_cache,
            )
            save_checkpoint(
                base / "user_vectors.ckpt",
                {"vectors": vectors},
                {
                    "stage_key": self.keys["persona"],
                    "seed": self.config.client.seed,
                    "user_ids": user_ids,
                    "dim": persona_encoder.dim,
                },
            )
            save_checkpoint(
                base / "item_vectors.ckpt",
                {"vectors": item_vectors},
                {
                    "stage_key": self.keys["persona"],
                    "seed": self.config.client.seed,
                    "item_ids": [m.item_id for m in items],
                    "dim": item_encoder.dim,
                },
            )
        if phase == "encode":
            self._mark_done("persona")

    def stage_pretrain(self) -> None:
        self._begin("pretrain")
        for which in ("source", "target"):
            ds = self._dataset(which)
            result = pretrain_id_embeddings(
                self._split(which), self.config.gcn, catalog_items=sorted(ds.item_ids)
            )
            save_checkpoint(
                self.run_dir / "backbone" / f"{which}.ckpt",
                {
                    "user_vecs": result.table.user_vecs,
                    "item_vecs": result.table.item_vecs,
                },
                {
                    "stage_key": self.keys["pretrain"],
                    "seed": self.config.gcn.seed,
                    "user_ids": result.table.user_ids,
                    "item_ids": result.table.item_ids,
                    "best_epoch": result.best_epoch,
                    "best_valid_hr": result.best_hr,
                },
            )
        self._mark_done("pretrain")

    # -- model assembly -----------------------------------------------------

    def _load_backbone(self, which: str) -> IdEmbeddingTable:
        arrays, manifest = load_checkpoint(self.run_dir / "backbone" / f"{which}.ckpt")
        return IdEmbeddingTable(
            user_ids=manifest["user_ids"],
            item_ids=manifest["item_ids"],
            user_vecs=arrays["user_vecs"],
            item_vecs=arrays["item_vecs"],
        )

    def _load_persona_vectors(self, which: str):
        base = self.run_dir / "persona" / which
        users, umanifest = load_checkpoint(base / "user_vectors.ckpt")
        items, imanifest = load_checkpoint(base / "item_vectors.ckpt")
        return (
            umanifest["user_ids"],
            users["vectors"],
            imanifest["item_ids"],
            items["vectors"],
        )

    def _model_inputs(
        self, which: str, overlap: list[str] | None = None,
        source_personas: np.ndarray | None = None,
        source_backbone: np.ndarray | None = None,
    ) -> ModelInputs:
        backbone = self._load_backbone(which)
        p_users, p_vecs, s_items, s_vecs = self._load_persona_vectors(which)
        urow = {u: k for k, u in enumerate(p_users)}
        irow = {i: k for k, i in enumerate(s_items)}
        persona_inputs = np.stack([p_vecs[urow[u]] for u in backbone.user_ids])
        item_semantics = np.stack([s_vecs[irow[i]] for i in backbone.item_ids])
        return ModelInputs(
            user_ids=backbone.user_ids,
            item_ids=backbone.item_ids,
            persona_inputs=persona_inputs,
            item_semantics=item_semantics,
            backbone_user=backbone.user_vecs,
            backbone_item=backbone.item_vecs,
            overlap_users=overlap or [],
            source_user_personas=source_personas,
            source_user_backbone=source_backbone,
        )

    def _ensure_source_tables(self, stage: str = "train") -> None:
        """Unless they are done under the current source key, train the
        source-domain model (no transfer) and export the overlap-aligned
        persona and ID tables it provides; `stage` names the caller in a
        DependencyError."""
        if self._is_done("source"):
            return
        self._begin(stage, "source")
        cfg = self.config.source_train_config()
        inputs = self._model_inputs("source")
        split = self._split("source")
        result = train_target(inputs, split.train, split.valid, cfg)
        h_all = result.model.user_persona_vectors()
        source_users = set(inputs.user_ids)
        target_train_users = {r.user_id for r in self._split("target").train}
        overlap = sorted(source_users & target_train_users)
        rows = [result.model.user_rows[u] for u in overlap]
        backbone = self._load_backbone("source")
        key = self.keys["source"]
        model_path, tables_path = self.artifact_paths("source")
        save_checkpoint(
            model_path,
            result.model.store.params,
            {"stage_key": key, "seed": cfg.seed, "best_epoch": result.best_epoch},
        )
        # written last: its manifest is the record `_is_done("source")` reads
        save_checkpoint(
            tables_path,
            {
                "h_users": h_all[rows],
                "v_users": backbone.user_vecs[rows],
            },
            {"stage_key": key, "overlap_users": overlap, "seed": cfg.seed},
        )
        self._set_done("source")

    def _target_inputs_with_transfer(self) -> ModelInputs:
        arrays, manifest = load_checkpoint(self.artifact_paths("source")[-1])
        return self._model_inputs(
            "target",
            overlap=manifest["overlap_users"],
            source_personas=arrays["h_users"],
            source_backbone=arrays["v_users"],
        )

    def _train_one(self, inputs: ModelInputs, seed: int, overrides: dict | None = None):
        cfg = dataclasses.replace(self.config.train, seed=seed, **(overrides or {}))
        split = self._split("target")
        return train_target(inputs, split.train, split.valid, cfg)

    def _test_report(
        self, model: MultiTapModel, ks: Sequence[int], which_split: str = "test"
    ) -> dict:
        split = self._split("target")
        heldout = split.test if which_split == "test" else split.valid
        return full_ranking_eval(
            model.score_matrix(),
            model.user_rows,
            model.inputs.item_ids,
            train_items_by_user(split.train),
            heldout,
            ks=ks,
            average=self.config.eval_average,
        )

    def stage_train(self) -> None:
        self._ensure_source_tables("train")
        self._begin("train")
        inputs = self._target_inputs_with_transfer()
        for seed in self.config.seeds:
            result = self._train_one(inputs, seed)
            save_checkpoint(
                self.run_dir / "model" / f"target_seed{seed}.ckpt",
                result.model.store.params,
                {
                    "stage_key": self.keys["train"],
                    "seed": seed,
                    "best_epoch": result.best_epoch,
                },
            )
            lines = [json.dumps(row, sort_keys=True) for row in result.history]
            atomic_write_text(
                self.run_dir / "model" / f"metrics_seed{seed}.jsonl",
                "\n".join(lines) + "\n",
            )
        self._mark_done("train")

    def _eval_checkpoint(self, path: Path, inputs: ModelInputs, ks, which_split: str) -> dict:
        arrays, manifest = load_checkpoint(path)
        cfg = dataclasses.replace(self.config.train, seed=manifest.get("seed", 0))
        model = MultiTapModel(inputs, cfg)
        model.store.load_params(arrays)
        return self._test_report(model, ks, which_split)

    def checkpoint_report_path(self, checkpoint: str | Path) -> Path:
        return self.run_dir / "eval" / f"checkpoint_{Path(checkpoint).stem}.json"

    def stage_eval(self, checkpoint: str | None = None) -> None:
        """Evaluate every seed's target model into `eval/report.json`; with
        `checkpoint`, evaluate that one file into `checkpoint_report_path`
        instead, which leaves the stage's done state alone."""
        if checkpoint is None:
            self._begin("eval")
        elif not self._is_done("source"):
            # the checkpoint is scored on this config's personas, backbone and
            # source tables, which train builds
            raise DependencyError("eval", "train")
        inputs = self._target_inputs_with_transfer()
        ks = list(self.config.eval_ks)
        which_split = self.config.eval_split
        if checkpoint is not None:
            report = self._eval_checkpoint(Path(checkpoint), inputs, ks, which_split)
            report.update(
                stage_key=self.keys["eval"], split=which_split, checkpoint=Path(checkpoint).name
            )
            write_json(self.checkpoint_report_path(checkpoint), report)
            return
        reports = [
            self._eval_checkpoint(
                self.run_dir / "model" / f"target_seed{seed}.ckpt", inputs, ks, which_split
            )
            for seed in self.config.seeds
        ]
        aggregated = aggregate_seed_reports(reports, ks, expected_seeds=len(self.config.seeds))
        aggregated["stage_key"] = self.keys["eval"]
        aggregated["split"] = which_split
        write_json(self.run_dir / "eval" / "report.json", aggregated)
        self._mark_done("eval")

    def stage_ablate(self) -> None:
        self._ensure_source_tables("ablate")
        self._begin("ablate")
        inputs = self._target_inputs_with_transfer()
        k = self.config.train.eval_k
        rows = []
        for axis, value, overrides in ablation_grid(self.config.ablate):
            for seed in self.config.seeds:
                result = self._train_one(inputs, seed, overrides)
                report = self._test_report(result.model, [k])
                rows.append(
                    {
                        "axis": axis,
                        "value": value,
                        "seed": seed,
                        f"hr@{k}": report["HR"][k],
                        f"ndcg@{k}": report["NDCG"][k],
                    }
                )
        header = ["axis", "value", "seed", f"hr@{k}", f"ndcg@{k}"]
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(str(row[h]) for h in header))
        atomic_write_text(self.run_dir / "ablation" / "results.csv", "\n".join(lines) + "\n")
        self._mark_done("ablate", {"runs": len(rows)})

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

