"""LightGCN backbone: ID embeddings pretrained per domain with BPR.

The bipartite graph indexes the users and items of the train edges, sorted,
then any catalog-only items, sorted, after the train items: those have
degree 0 and no edges, so they receive no propagation mass and are reachable
only as sampled negatives or ranking candidates.  Propagation is the layer
mean of repeated normalized-adjacency applications, including layer 0.
Pretraining runs its epoch body (one negative drawn per positive, per
batch) in `diffkit.fit_early_stopped`, seeded by `BACKBONE_SEED`.

The adjacency is the package's one sparse matrix, so `normalized_adjacency`
imports `scipy.sparse` when called, not this module: importing it costs about
15 MB of RSS and 0.15 s, which a process whose pretrain stage is served never
pays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .corpus import InteractionRecord, SplitBundle
from .diffkit import ParameterStore, adam_step, bpr, init_normal, scatter_rows
from .diffkit import check_loop_settings, fit_early_stopped
from .errors import DivergenceError
from .evaluate import EARLY_STOP_K, full_ranking_eval, heldout_units, pair_index

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class BipartiteGraph:
    user_index: dict[str, int]
    item_index: dict[str, int]
    edges: np.ndarray  # (E, 2) of (user_row, item_row), deduplicated
    user_degrees: np.ndarray
    item_degrees: np.ndarray

    @classmethod
    def from_interactions(
        cls, records: Iterable[InteractionRecord], catalog_items: Iterable[str]
    ) -> "BipartiteGraph":
        pairs = sorted({(r.user_id, r.item_id) for r in records})
        if not pairs:
            raise ValueError("cannot build a graph from zero interactions")
        users = sorted({u for u, _ in pairs})
        items = sorted({i for _, i in pairs})
        items += sorted(set(catalog_items) - set(items))
        user_index = {u: k for k, u in enumerate(users)}
        item_index = {i: k for k, i in enumerate(items)}
        edges = np.array([(user_index[u], item_index[i]) for u, i in pairs], dtype=np.int64)
        user_degrees = np.bincount(edges[:, 0], minlength=len(users)).astype(np.float64)
        item_degrees = np.bincount(edges[:, 1], minlength=len(items)).astype(np.float64)
        return cls(user_index, item_index, edges, user_degrees, item_degrees)


@dataclass
class IdEmbeddingTable:
    user_ids: list[str]
    item_ids: list[str]
    user_vecs: np.ndarray  # (|U|, d)
    item_vecs: np.ndarray  # (|I|, d)

    def __post_init__(self):
        if self.user_vecs.shape[0] != len(self.user_ids):
            raise ValueError("user row count does not match user index")
        if self.item_vecs.shape[0] != len(self.item_ids):
            raise ValueError("item row count does not match item index")
        if self.user_vecs.shape[1] != self.item_vecs.shape[1]:
            raise ValueError("user and item embedding dimensions differ")

    def stacked(self) -> np.ndarray:
        return np.vstack([self.user_vecs, self.item_vecs])


def normalized_adjacency(graph: BipartiteGraph) -> sp.csr_matrix:
    """Symmetric bipartite adjacency over the graph's users then items, with
    entries 1/sqrt(deg(u) * deg(i)); a catalog-only item's row and column
    stay zero."""
    import scipy.sparse as sp  # only pretraining builds a sparse matrix; see the module docstring

    users, items = graph.edges[:, 0], graph.edges[:, 1]
    weights = 1.0 / np.sqrt(graph.user_degrees[users] * graph.item_degrees[items])
    nu = len(graph.user_index)
    n = nu + len(graph.item_index)
    return sp.csr_matrix(
        (np.concatenate([weights, weights]),
         (np.concatenate([users, nu + items]), np.concatenate([nu + items, users]))),
        shape=(n, n),
    )


def _layer_mean(x: np.ndarray, adjacency: sp.spmatrix, layers: int) -> np.ndarray:
    """Mean of A^l x over l = 0..layers, summed in layer order."""
    acc = x.copy()
    current = x
    for _ in range(layers):
        current = adjacency @ current
        acc += current
    return acc / (layers + 1)


def propagate(table: IdEmbeddingTable, adjacency: sp.spmatrix, layers: int) -> IdEmbeddingTable:
    """Layer-averaged propagation: mean over layers 0..L of A^l applied to
    the stacked embedding matrix.  layers=0 returns the input exactly."""
    if layers < 0:
        raise ValueError("layer count must be nonnegative")
    stacked = table.stacked()
    if adjacency.shape != (stacked.shape[0], stacked.shape[0]):
        raise ValueError(
            f"adjacency shape {adjacency.shape} does not match table ({stacked.shape[0]} nodes)"
        )
    out = _layer_mean(stacked, adjacency, layers)
    nu = len(table.user_ids)
    return IdEmbeddingTable(
        user_ids=list(table.user_ids),
        item_ids=list(table.item_ids),
        user_vecs=out[:nu],
        item_vecs=out[nu:],
    )


BACKBONE_SEED = 0  # draws each backbone's init, shuffles and negatives; no config sets it


@dataclass
class GcnConfig:
    dim: int = 128
    layers: int = 3
    learning_rate: float = 1e-2
    weight_decay: float = 1e-4
    epochs: int = 100
    patience: int = 10
    batch_size: int = 1024

    def __post_init__(self):
        check_loop_settings(self, "epochs", dim=1, layers=0)


@dataclass
class PretrainResult:
    table: IdEmbeddingTable  # propagated embeddings at the best epoch
    history: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_hr: float = 0.0


# Kept apart from model's sampler, which redraws before the next draw: another RNG stream.
def _sample_negatives(
    rng: np.random.Generator, users: np.ndarray, observed: list[set[int]], n_items: int
) -> np.ndarray:
    negs = rng.integers(0, n_items, size=users.shape[0]).tolist()
    for idx, user in enumerate(users.tolist()):
        seen = observed[user]
        if len(seen) >= n_items:
            continue  # no unobserved item exists; keep the draw
        while negs[idx] in seen:
            negs[idx] = int(rng.integers(0, n_items))
    return np.array(negs, dtype=np.int64)


def pretrain_id_embeddings(
    split: SplitBundle,
    config: GcnConfig,
    catalog_items: Iterable[str],
) -> PretrainResult:
    """Train LightGCN with BPR on the train part, early-stopped on valid HR@K."""
    graph = BipartiteGraph.from_interactions(split.train, catalog_items)
    user_ids, item_ids = list(graph.user_index), list(graph.item_index)
    adjacency = normalized_adjacency(graph)

    rng = np.random.default_rng(BACKBONE_SEED)
    nu, ni = len(user_ids), len(item_ids)
    store = ParameterStore()
    emb = store.add("emb", init_normal(rng, (nu + ni, config.dim)))

    pos_pairs, observed = pair_index(split.train, graph.user_index, graph.item_index)
    units = heldout_units(graph.user_index, item_ids, observed, split.valid)
    layer_count = config.layers

    def run_epoch(epoch: int):
        order = rng.permutation(pos_pairs.shape[0])
        epoch_loss = 0.0
        n_triples = 0
        for start in range(0, order.size, config.batch_size):
            batch = pos_pairs[order[start : start + config.batch_size]]
            users, pos = batch[:, 0], batch[:, 1]
            neg = _sample_negatives(rng, users, observed, ni)

            # forward: propagate, then score the batch triples
            prop = _layer_mean(emb, adjacency, layer_count)
            p_u = prop[users]
            q_pos = prop[nu + pos]
            q_neg = prop[nu + neg]
            loss, coeff = bpr(np.sum(p_u * (q_pos - q_neg), axis=1))
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite BPR loss at epoch {epoch}, batch start {start}"
                )
            epoch_loss += loss * coeff.size
            n_triples += coeff.size

            # backward through the propagation (adjacency is symmetric)
            grad_pos = coeff[:, None] * p_u
            grad_prop = scatter_rows(
                np.concatenate([users, nu + pos, nu + neg]),
                np.concatenate([coeff[:, None] * (q_pos - q_neg), grad_pos, -grad_pos]),
                prop.shape[0],
            )
            store.grads["emb"] += _layer_mean(grad_prop, adjacency, layer_count)
            adam_step(store, config.learning_rate, config.weight_decay)

        table = propagate(
            IdEmbeddingTable(user_ids, item_ids, emb[:nu], emb[nu:]), adjacency, layer_count
        )
        scores = table.user_vecs @ table.item_vecs.T
        metrics = full_ranking_eval(scores, units, ks=[EARLY_STOP_K])
        stats = {"loss": epoch_loss / n_triples, "valid_hr": metrics["HR"][EARLY_STOP_K]}
        return stats, lambda: table

    history, best_epoch, best_hr, table = fit_early_stopped(
        run_epoch, config.epochs, config.patience
    )
    return PretrainResult(table, history, best_epoch, best_hr)
