"""Span recorder that wraps multitap's public entry points from outside.

Every entry point is wrapped where callers look it up: a name imported with
`from ... import` lives on in the importing module's namespace, so
`adam_step` is patched in `multitap.gcn` and `multitap.model`, not only in
`multitap.diffkit`.  Spans (name, start, end, parent) stay in memory and are
written once, after the timed run.  The pipeline is single-threaded, so a
plain stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter

# span name -> "module:attribute.path" sites where callers look it up
ENTRY_POINTS = {
    "pipeline.run": ["multitap.pipeline:Pipeline.run"],
    "pipeline.ingest": ["multitap.pipeline:Pipeline.stage_ingest"],
    "pipeline.split": ["multitap.pipeline:Pipeline.stage_split"],
    "pipeline.idh": ["multitap.pipeline:Pipeline.stage_idh"],
    "pipeline.persona": ["multitap.pipeline:Pipeline.stage_persona"],
    "pipeline.pretrain": ["multitap.pipeline:Pipeline.stage_pretrain"],
    "pipeline.train": ["multitap.pipeline:Pipeline.stage_train"],
    "pipeline.eval": ["multitap.pipeline:Pipeline.stage_eval"],
    "pipeline.source_train": ["multitap.pipeline:Pipeline._ensure_source_tables"],
    "corpus.load_domain": ["multitap.pipeline:load_domain", "multitap.corpus:load_domain"],
    "corpus.time_split": ["multitap.pipeline:time_split", "multitap.corpus:time_split"],
    "idh.compute_domain_bins": ["multitap.idh:compute_domain_bins"],
    "idh.compute_domain_labels": ["multitap.idh:compute_domain_labels"],
    "idh.preservation_matrix": ["multitap.idh:preservation_matrix"],
    "persona.build_all_persona_dbs": ["multitap.persona:build_all_persona_dbs"],
    "persona.recent_history": ["multitap.persona:recent_history"],
    "persona.generate_all_personas": ["multitap.persona:generate_all_personas"],
    "persona.encode_personas": ["multitap.persona:encode_personas"],
    "persona.encode_item_batch": ["multitap.persona:encode_item_batch"],
    "persona.cache_get": ["multitap.persona.cache:JsonCache.get"],
    "persona.cache_put": ["multitap.persona.cache:JsonCache.put"],
    "persona.generator": [
        "multitap.persona.clients:TemplateGenerator.personas",
        "multitap.persona.clients:TemplateGenerator.domain_description",
    ],
    "persona.encoder": ["multitap.persona.clients:HashingEncoder.embed"],
    "gcn.pretrain_id_embeddings": [
        "multitap.pipeline:pretrain_id_embeddings",
        "multitap.gcn:pretrain_id_embeddings",
    ],
    "gcn.normalized_adjacency": ["multitap.gcn:normalized_adjacency"],
    "gcn.propagate": ["multitap.gcn:propagate"],
    "model.train_target": ["multitap.pipeline:train_target", "multitap.model:train_target"],
    "model.batch_loss_and_grads": ["multitap.model:MultiTapModel.batch_loss_and_grads"],
    "model.score_matrix": ["multitap.model:MultiTapModel.score_matrix"],
    "model.user_persona_vectors": ["multitap.model:MultiTapModel.user_persona_vectors"],
    "diffkit.adam_step": [
        "multitap.gcn:adam_step",
        "multitap.model:adam_step",
        "multitap.diffkit:adam_step",
    ],
    "diffkit.save_checkpoint": ["multitap.pipeline:save_checkpoint", "multitap.diffkit:save_checkpoint"],
    "diffkit.load_checkpoint": ["multitap.pipeline:load_checkpoint", "multitap.diffkit:load_checkpoint"],
    "evaluate.full_ranking_eval": [
        "multitap.pipeline:full_ranking_eval",
        "multitap.gcn:full_ranking_eval",
        "multitap.model:full_ranking_eval",
        "multitap.evaluate:full_ranking_eval",
    ],
}

LAYERS = ("pipeline", "corpus", "idh", "persona", "gcn", "model", "diffkit", "evaluate")

# counters taken at the same boundaries: name -> (args, result) -> increments
COUNTERS = {
    "corpus.load_domain": lambda args, res: {"rows": len(res.interactions)},
    "persona.cache_get": lambda args, res: {"hits": int(res is not None)},
    "model.batch_loss_and_grads": lambda args, res: {"triples": len(args[1])},
    "diffkit.save_checkpoint": lambda args, res: {"bytes": os.path.getsize(args[0])},
    "evaluate.full_ranking_eval": lambda args, res: {
        "units": res["units"],
        "skipped": res["skipped"],
    },
}


def _resolve(site: str):
    module_name, path = site.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, float]] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = perf_counter()
            if counter is not None:
                totals = self.counts.setdefault(name, {})
                for key, value in counter(args, result).items():
                    totals[key] = totals.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Patch every site; one wrapper per original function, so a name
        reachable from two modules still records one span per call."""
        wrappers: dict[int, object] = {}
        for name, sites in ENTRY_POINTS.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = getattr(owner, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, name)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds, and self seconds (minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in ENTRY_POINTS
        }
        for (name, start, end, _), inner in zip(self.spans, child_time):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(tracer: Tracer, stages) -> dict[str, float]:
    """The per-layer metrics of one traced run, named as in BENCHMARK.json."""
    t = tracer.totals()
    counts = tracer.counts

    def count(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for stage in stages:
        m[f"pipeline.{stage}_s"] = t[f"pipeline.{stage}"]["s"]
    m["pipeline.source_train_s"] = t["pipeline.source_train"]["s"]
    m["pipeline.unaccounted_s"] = t["pipeline.run"]["s"] - sum(
        t[f"pipeline.{stage}"]["s"] for stage in stages
    )
    m["corpus.load_domain_s"] = t["corpus.load_domain"]["s"]
    m["corpus.load_domain_rows"] = count("corpus.load_domain", "rows")
    m["corpus.time_split_s"] = t["corpus.time_split"]["s"]
    for fn in ("compute_domain_bins", "compute_domain_labels", "preservation_matrix"):
        m[f"idh.{fn}_s"] = t[f"idh.{fn}"]["s"]
    m["idh.preservation_matrix_calls"] = t["idh.preservation_matrix"]["calls"]
    for fn in ("build_all_persona_dbs", "generate_all_personas", "encode_item_batch"):
        m[f"persona.{fn}_s"] = t[f"persona.{fn}"]["s"]
    for fn in ("recent_history", "encode_personas", "cache_get", "cache_put"):
        m[f"persona.{fn}_s"] = t[f"persona.{fn}"]["s"]
        m[f"persona.{fn}_calls"] = t[f"persona.{fn}"]["calls"]
    m["persona.cache_hit_ratio"] = _ratio(
        count("persona.cache_get", "hits"), t["persona.cache_get"]["calls"]
    )
    m["persona.generator_calls"] = t["persona.generator"]["calls"]
    m["persona.encoder_calls"] = t["persona.encoder"]["calls"]
    for fn in ("pretrain_id_embeddings", "normalized_adjacency", "propagate"):
        m[f"gcn.{fn}_s"] = t[f"gcn.{fn}"]["s"]
    m["gcn.pretrain_self_s"] = t["gcn.pretrain_id_embeddings"]["self_s"]
    m["model.train_target_s"] = t["model.train_target"]["s"]
    m["model.train_target_self_s"] = t["model.train_target"]["self_s"]
    for fn in ("batch_loss_and_grads", "score_matrix"):
        m[f"model.{fn}_s"] = t[f"model.{fn}"]["s"]
        m[f"model.{fn}_calls"] = t[f"model.{fn}"]["calls"]
    m["model.triples_per_s"] = _ratio(
        count("model.batch_loss_and_grads", "triples"), t["model.batch_loss_and_grads"]["s"]
    )
    m["model.user_persona_vectors_s"] = t["model.user_persona_vectors"]["s"]
    adam = t["diffkit.adam_step"]
    m["diffkit.adam_step_s"] = adam["s"]
    m["diffkit.adam_step_calls"] = adam["calls"]
    m["diffkit.adam_step_ms_per_call"] = 1000.0 * _ratio(adam["s"], adam["calls"])
    m["diffkit.save_checkpoint_s"] = t["diffkit.save_checkpoint"]["s"]
    m["diffkit.load_checkpoint_s"] = t["diffkit.load_checkpoint"]["s"]
    m["diffkit.checkpoint_bytes"] = count("diffkit.save_checkpoint", "bytes")
    ev = t["evaluate.full_ranking_eval"]
    m["evaluate.full_ranking_eval_s"] = ev["s"]
    m["evaluate.full_ranking_eval_calls"] = ev["calls"]
    m["evaluate.units"] = count("evaluate.full_ranking_eval", "units")
    m["evaluate.skipped_units"] = count("evaluate.full_ranking_eval", "skipped")
    m["evaluate.units_per_s"] = _ratio(m["evaluate.units"], ev["s"])
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in t.items() if name.startswith(layer + ".")
        )
    return m
