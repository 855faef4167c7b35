"""Reference implementations that the production code is checked against.

`rank_candidates` sorts every candidate with a lexsort; `full_ranking_eval`
is the evaluation protocol written directly on top of that full ranking.
`aggregate_personas` and `transfer_loss` are the model's persona
aggregation and transfer term written one user at a time with plain loops.
`hashing_embed` is the feature-hashing encoder that hashes every feature
occurrence, and `sample_negatives` the target trainer's negative sampler
drawing one scalar at a time.  `early_stopping` is the fit loop's stopping
rule read off prefix maxima.  `adam_step` is the Adam update written as
whole-array expressions, one temporary per operation.  `build_persona_db` builds one user's persona
database, re-sorting every distribution it labels against unless the caller
passes it precomputed.  `normalized_adjacency` is the graph backbone's
adjacency built one edge at a time through id-keyed maps, optionally onto
wider user and item orderings.  `encode_personas` and `encode_item_batch`
are the two encoders before they shared one path, without a cache: one
encoder call per user, and the item texts in calls of `chunk_size`.  `stage_keys`
computes the stage keys from a deep copy of the whole config and the
identities of freshly built clients, and `config_hash` the run hash from
them.  All are deliberately naive and slow.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from typing import Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from multitap.corpus import DomainDataset
from multitap.errors import MissingLabelError
from multitap.gcn import BipartiteGraph
from multitap.idh import CRITERIA_ORDER, Criterion, Label, tertile_label, tertile_thresholds
from multitap.persona import PersonaDB, item_semantic_text
from multitap.persona.clients import build_clients
from multitap.pipeline import NODES, SIDES
from multitap.util import content_key, file_sha256


def rank_candidates(scores, item_ids, exclude) -> list[str]:
    """Candidates sorted by descending score, ties by ascending item id."""
    ids = np.asarray(item_ids)
    keep = np.array([i not in exclude for i in item_ids], dtype=bool)
    order = np.lexsort((ids[keep], -np.asarray(scores, dtype=np.float64)[keep]))
    return list(ids[keep][order])


def full_ranking_eval(score_fn, item_ids, train_items, heldout, ks=(5,), average="interaction") -> dict:
    """The full-ranking protocol of `multitap.evaluate.full_ranking_eval`,
    with each positive's rank read off the sorted candidate list."""
    ks = sorted(ks)
    by_user: dict[str, list[str]] = {}
    for user, item in heldout:
        by_user.setdefault(user, []).append(item)
    per_user_hits, per_user_gains, per_user_units = [], [], []
    units = skipped = 0
    for user in sorted(by_user):
        try:
            scores = score_fn(user)
        except KeyError:
            skipped += len(by_user[user])
            continue
        exclude = train_items.get(user, set())
        ranked = rank_candidates(scores, item_ids, exclude)
        if not ranked:
            skipped += len(by_user[user])
            continue
        rank_of = {item: r + 1 for r, item in enumerate(ranked)}
        u_hits = {k: 0.0 for k in ks}
        u_gains = {k: 0.0 for k in ks}
        u_units = 0
        for item in by_user[user]:
            if item not in item_ids or item in exclude:
                skipped += 1
                continue
            rank = rank_of[item]
            u_units += 1
            for k in ks:
                if rank <= k:
                    u_hits[k] += 1.0
                    u_gains[k] += 1.0 / np.log2(rank + 1)
        if u_units:
            per_user_hits.append(u_hits)
            per_user_gains.append(u_gains)
            per_user_units.append(u_units)
            units += u_units

    def reduce(per_user, k):
        if not per_user:
            return 0.0
        if average == "interaction":
            return float(sum(d[k] for d in per_user) / units)
        return float(np.mean([d[k] / n for d, n in zip(per_user, per_user_units)]))

    return {
        "units": units,
        "skipped": skipped,
        "HR": {k: reduce(per_user_hits, k) for k in ks},
        "NDCG": {k: reduce(per_user_gains, k) for k in ks},
    }


def scaled_dot_attention(query, keys, values):
    """Single-query attention: (softmax(keys @ query / sqrt(n)), weights @ values)."""
    logits = [float(k @ query) / math.sqrt(query.shape[0]) for k in keys]
    top = max(logits)
    e = [math.exp(v - top) for v in logits]
    weights = np.array([v / sum(e) for v in e])
    return weights, sum(w * v for w, v in zip(weights, values))


def aggregate_personas(E, params, mode):
    """One user's (5, n) criterion stack -> (attention weights or None,
    pooled vector, aggregated persona h), from the model's parameter dict."""
    weights = None
    if mode == "self_attn":
        weights, pooled = scaled_dot_attention(params["agg.mask"], E, E)
    elif mode == "mean":
        pooled = sum(E) / len(E)
    else:  # concat
        pooled = np.concatenate(list(E))
    hid = np.tanh(pooled @ params["agg.ffn_w"] + params["agg.ffn_b"])
    return weights, pooled, hid @ params["agg.proj_w"] + params["agg.proj_b"]


def _cosine(a, b):
    return float(a @ b) / (math.sqrt(float(a @ a)) * math.sqrt(float(b @ b)))


def info_nce_mean(anchors, positives, tau):
    """Mean over anchors u of -log(exp(cos(a_u, p_u)/tau) / sum_v exp(cos(a_u, p_v)/tau))."""
    total = 0.0
    for u, a in enumerate(anchors):
        logits = [_cosine(a, p) / tau for p in positives]
        top = max(logits)
        lse = top + math.log(sum(math.exp(v - top) for v in logits))
        total += lse - logits[u]
    return total / len(anchors)


def transfer_loss(mode, users, persona, ids, source_users, source_persona, source_ids, tau):
    """The transfer term for `users`: their target persona and ID rows
    (`persona[u]`, `ids[u]`) against the source tables, whose row k belongs
    to `source_users[k]`."""
    src = {u: k for k, u in enumerate(source_users)}
    anchors, positives = [], []
    for u in users:
        s = src[u]
        if mode == "doppelganger":
            _, doppelganger = scaled_dot_attention(persona[u], source_persona, source_persona)
            anchors.append(persona[u])
            positives.append(doppelganger)
        elif mode == "direct_persona":
            anchors.append(persona[u])
            positives.append(source_persona[s])
        elif mode == "direct_id":
            anchors.append(ids[u])
            positives.append(source_ids[s])
        else:  # direct_both
            anchors.append(np.concatenate([persona[u], ids[u]]))
            positives.append(np.concatenate([source_persona[s], source_ids[s]]))
    return info_nce_mean(anchors, positives, tau)


def hashing_embed(texts, dim, seed):
    """`HashingEncoder(dim, seed).embed(texts)`, one blake2b per feature
    occurrence, each added into its slot in feature order."""
    out = np.zeros((len(texts), dim), dtype=np.float64)
    for row, text in enumerate(texts):
        tokens = re.findall(r"[a-z0-9]+", text.lower())
        for feature in tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]:
            digest = hashlib.blake2b(f"{seed}:{feature}".encode("utf-8"), digest_size=8).digest()
            value = int.from_bytes(digest, "little")
            out[row, value % dim] += 1.0 if (value >> 62) & 1 else -1.0
        norm = np.linalg.norm(out[row])
        if norm == 0.0:
            out[row, 0] = 1.0
        else:
            out[row] /= norm
    return out


def sample_negatives(rng, users, observed, n_items):
    """The target trainer's negatives, one `rng.integers` call per draw:
    redraw while the user has seen the draw, unless they have seen every item."""
    negs = np.empty_like(users)
    for t in range(users.size):
        draw = int(rng.integers(0, n_items))
        seen = observed[users[t]]
        if len(seen) < n_items:
            while draw in seen:
                draw = int(rng.integers(0, n_items))
        negs[t] = draw
    return negs


def early_stopping(valid_hrs, epochs, patience):
    """(epochs run, best epoch) of early stopping on validation HR.  Epoch
    e >= 1 ends training when its HR does not exceed the maximum of epochs
    0..e-1 and e lies `patience` or more epochs after the first epoch that
    reached that maximum; the best epoch is the first maximum of the epochs
    run."""
    ran = epochs
    for e in range(1, epochs):
        top = max(valid_hrs[:e])
        if valid_hrs[e] <= top and e - valid_hrs.index(top) >= patience:
            ran = e + 1
            break
    run = valid_hrs[:ran]
    return ran, run.index(max(run))


def adam_step(store, learning_rate, weight_decay):
    """Bias-corrected Adam (betas 0.9 and 0.999, epsilon 1e-8) with decoupled
    weight decay on a `multitap.diffkit.ParameterStore`, expression by
    expression."""
    store.step_count += 1
    t = store.step_count
    b1, b2 = 0.9, 0.999
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name in store.names():
        g = store.grads[name]
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        m = store._m[name]
        v = store._v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + 1e-8)
        p = store.params[name]
        p -= learning_rate * update
        if weight_decay > 0.0:
            p -= learning_rate * weight_decay * p
    store.zero_grads()


def category_diversity(user_id: str, dataset: DomainDataset) -> int:
    """Number of distinct categories the user has interacted with."""
    per_cat = dataset.user_category_items.get(user_id)
    if not per_cat:
        raise ValueError(f"user '{user_id}' has no interactions in '{dataset.domain_id}'")
    return len(per_cat)


def category_diversity_label(
    user_id: str, dataset: DomainDataset, all_diversities: Sequence[int] | None = None
) -> tuple[int, Label]:
    """Diversity count plus its label against the domain-wide distribution."""
    x = category_diversity(user_id, dataset)
    if all_diversities is None:
        all_diversities = [len(dataset.user_category_items[u]) for u in sorted(dataset.users)]
    q13, q23 = tertile_thresholds(all_diversities)
    return x, tertile_label(x, q13, q23)


def familiarity_counts(dataset: DomainDataset, category: str) -> dict[str, int]:
    """Interaction counts |E_{u,c}| for every user active in the category."""
    return {
        u: dataset.interaction_count(u, category)
        for u in dataset.users_in_category(category)
    }


def category_familiarity_label(
    user_id: str, category: str, counts: Mapping[str, int]
) -> Label:
    """Label the user's interaction depth against the category's count distribution."""
    if user_id not in counts or counts[user_id] < 1:
        raise ValueError(f"user '{user_id}' has no interactions in category '{category}'")
    q13, q23 = tertile_thresholds(counts.values())
    return tertile_label(counts[user_id], q13, q23)


def build_persona_db(
    user_id: str,
    dataset: DomainDataset,
    idh_labels: Mapping[Criterion, Mapping[str, Mapping[str, Label]]],
    familiarity: Mapping[str, Mapping[str, int]] | None = None,
    all_diversities: Sequence[int] | None = None,
) -> PersonaDB:
    """Assemble one user's database from precomputed PS/QP/PB label maps.

    CF and CD labels are derived here.  `familiarity` may carry precomputed
    per-category count distributions to avoid rescanning the dataset.
    """
    per_cat = dataset.user_category_items.get(user_id)
    if not per_cat:
        raise ValueError(f"user '{user_id}' has no interactions in '{dataset.domain_id}'")
    for criterion in (Criterion.PS, Criterion.QP, Criterion.PB):
        if criterion not in idh_labels:
            raise MissingLabelError(f"no label maps for criterion '{criterion.value}'")
    labels: dict[Criterion, dict[str, Label]] = {}
    for criterion in (Criterion.PS, Criterion.QP, Criterion.PB):
        per_criterion: dict[str, Label] = {}
        for category in sorted(per_cat):
            cat_labels = idh_labels[criterion].get(category, {})
            if user_id in cat_labels:
                per_criterion[category] = cat_labels[user_id]
        labels[criterion] = per_criterion
    cf: dict[str, Label] = {}
    for category in sorted(per_cat):
        counts = (
            familiarity[category]
            if familiarity is not None
            else familiarity_counts(dataset, category)
        )
        cf[category] = category_familiarity_label(user_id, category, counts)
    labels[Criterion.CF] = cf
    _, diversity = category_diversity_label(user_id, dataset, all_diversities)
    return PersonaDB(user_id=user_id, labels=labels, diversity=diversity)


def normalized_adjacency(
    graph: BipartiteGraph,
    user_order: Sequence[str] | None = None,
    item_order: Sequence[str] | None = None,
) -> sp.csr_matrix:
    """Symmetric bipartite adjacency with entries 1/sqrt(deg(u) * deg(i)).

    Optional orderings re-index rows onto a superset of nodes (extra rows
    stay zero); by default the graph's own index maps are used."""
    if user_order is None:
        u_map = graph.user_index
        nu = len(graph.user_index)
    else:
        u_map = {u: k for k, u in enumerate(user_order)}
        nu = len(user_order)
    if item_order is None:
        i_map = graph.item_index
        ni = len(graph.item_index)
    else:
        i_map = {i: k for k, i in enumerate(item_order)}
        ni = len(item_order)
    inv_user = {v: k for k, v in graph.user_index.items()}
    inv_item = {v: k for k, v in graph.item_index.items()}
    rows, cols, vals = [], [], []
    for u_row, i_row in graph.edges:
        u = inv_user[int(u_row)]
        i = inv_item[int(i_row)]
        if u not in u_map or i not in i_map:
            continue
        weight = 1.0 / np.sqrt(graph.user_degrees[u_row] * graph.item_degrees[i_row])
        ui = u_map[u]
        ii = nu + i_map[i]
        rows.extend([ui, ii])
        cols.extend([ii, ui])
        vals.extend([weight, weight])
    n = nu + ni
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def encode_personas(texts, encoder) -> np.ndarray:
    """The (U, 5, d) vectors of each user's `{criterion value: text}` map,
    one encoder call per user."""
    for text in texts:
        missing = [c.value for c in CRITERIA_ORDER if c.value not in text]
        if missing:
            raise ValueError(f"persona texts missing criteria: {missing}")
    rows = []
    for text in texts:
        matrix = encoder.embed([text[c.value] for c in CRITERIA_ORDER])
        if matrix.shape != (len(CRITERIA_ORDER), encoder.dim):
            raise ValueError(f"encoder returned shape {matrix.shape}, expected (5, {encoder.dim})")
        rows.append(matrix)
    return np.stack(rows)


def encode_item_batch(items, domain_description, encoder, chunk_size) -> np.ndarray:
    """The (I, d) vectors of `items`, sent to the encoder in calls of `chunk_size`."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    texts = [item_semantic_text(m, domain_description) for m in items]
    return np.concatenate([encoder.embed(texts[start : start + chunk_size])
                           for start in range(0, len(texts), chunk_size)])


def semantic_dict(config) -> dict:
    """Everything that affects outputs; run/cache locations excluded."""
    obj = dataclasses.asdict(config)
    obj.pop("run_dir")
    obj.pop("cache_dir")
    return obj


def config_hash(config) -> str:
    """`Pipeline(config).hash`: the content key of every node's key."""
    return content_key(stage_keys(config))


def stage_keys(config) -> dict[str, str]:
    """`config.stage_keys()`: every node's key from a deep copy of the whole
    config.  Each trainer is rebuilt as its runs read it: its persona width
    read off the persona encoder when unset; with transfer off (`none`, or a
    lambda of 0 or less), as `none` with no lambda or tau; else with the
    source model's section under "source".  That section is the source model's
    own trainer, or train's, with transfer off and train's persona width, and
    the first seed.  The train
    section is train's trainer; the ablate section lists each grid point's axis,
    value and trainer, axis by axis (no axes: doppelganger vs none).  The input
    files are hashed side by side and the persona clients built anew."""
    sections = semantic_dict(config)
    clients = build_clients(config.client)

    def as_read(trainer: dict, source=None) -> dict:
        trainer = dict(trainer, persona_out_dim=trainer["persona_out_dim"] or clients[1].dim)
        if trainer["transfer"] == "none" or trainer["lambda_dpl"] <= 0:
            trainer["transfer"] = "none"
            del trainer["lambda_dpl"], trainer["tau"]
        else:
            trainer["source"] = source
        return trainer

    source = {"trainer": as_read(dict(sections["source_train"] or sections["train"],
                                      transfer="none",
                                      persona_out_dim=sections["train"]["persona_out_dim"])),
              "seed": sections["seeds"][0]}
    fields = {"aggregation": "aggregation", "transfer": "transfer", "lambda": "lambda_dpl",
              "tau": "tau"}
    axes = sections["ablate"] or {"transfer": ["doppelganger", "none"]}
    sections["ablate"] = [
        [axis, value, as_read(dict(sections["train"], **{field: value}), source)]
        for axis, field in fields.items() for value in axes.get(axis, [])]
    sections["train"] = as_read(sections["train"], source)
    sections["source_train"] = source
    sections["inputs"] = {}
    for side in SIDES:
        spec = sections[side]
        sections["inputs"][side] = {
            "domain_id": spec["domain_id"],
            "interactions": file_sha256(spec["interactions"]),
            "metadata": file_sha256(spec["metadata"]),
        }
    sections["clients"] = [client.identity for client in clients]
    keys: dict[str, str] = {}
    for name, node in NODES.items():
        keys[name] = content_key({
            "node": name,
            "config": {section: sections[section] for section in node.reads},
            "upstream": [keys[u] for u in node.upstream],
        })
    return keys
