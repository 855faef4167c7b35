"""Core recommendation model: self-attentive persona aggregation, doppelganger
contrastive transfer, persona-behavior fusion, BPR and joint training.

Frozen inputs are the per-user criterion embedding stacks, item semantic
vectors, and the source-domain persona/ID tables; trainable parameters are
the aggregation mask token, the aggregator FFN/Proj, the two fusion heads
and the ID embeddings (initialized from the pretrained graph backbone).
`MultiTapModel` is the only implementation of this maths: it works on whole
batches, composes its forward and backward passes from the `diffkit` ops
(`affine`/`affine_backward` for the aggregator FFN/Proj and both fusion
heads, `softmax`/`softmax_backward`, `info_nce`, `bpr`, `scatter_rows`) and
an inline tanh adjoint, and `diffkit.grad_check` validates the complete
objective.  The transfer modes are rows of `TRANSFER_TABLE`.
`train_target` runs its epoch body (one negative per positive, drawn once
per epoch) in `diffkit.fit_early_stopped`.  A run's seed is an argument of
the model and of `train_target`, never a `TrainConfig` field, and draws the
fusion heads, dropout, shuffles and negatives; the aggregator always starts
from `PERSONA_SPACE_SEED`, in both domains.
A training step holds only what it still reads: the persona aggregation
keeps no (B, 5, n) gather of the criterion rows (its backward gathers them
again), the item head's backward runs as soon as its gradient exists, and
the BPR temporaries go at their last read.  Scoring reads the persona and
ID tables in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import InteractionRecord
from .diffkit import (
    ParameterStore,
    adam_step,
    affine,
    affine_backward,
    bpr,
    check_loop_settings,
    fit_early_stopped,
    info_nce,
    init_normal,
    scatter_rows,
    softmax,
    softmax_backward,
)
from .errors import DivergenceError
from .evaluate import EARLY_STOP_K, full_ranking_eval, heldout_units, pair_index

AGGREGATION_MODES = ("self_attn", "mean", "concat")

# mode -> (anchor parts, positive parts | "doppelganger"). An anchor is the
# concatenation of the named parts of a target user: "persona" is the
# aggregated persona embedding h, "id" the trainable ID embedding. Positive
# parts name the same user's rows in the source tables (the source persona
# embeddings and the source ID backbone); "doppelganger" is the
# target-conditioned attention over all source persona embeddings.
TRANSFER_TABLE: dict[str, tuple[tuple[str, ...], tuple[str, ...] | str]] = {
    "doppelganger": (("persona",), "doppelganger"),
    "direct_id": (("id",), ("id",)),
    "direct_persona": (("persona",), ("persona",)),
    "direct_both": (("persona", "id"), ("persona", "id")),
}
TRANSFER_MODES = (*TRANSFER_TABLE, "none")

# Aggregator layers in both domains share this seeded init so the source
# and target persona spaces start aligned; the doppelganger attention
# dots target queries against source keys, which is only meaningful when
# the two maps agree up to training drift.
PERSONA_SPACE_SEED = 777


@dataclass
class TrainConfig:
    aggregation: str = "self_attn"
    transfer: str = "doppelganger"
    lambda_dpl: float = 1.4
    tau: float = 0.5
    batch_size: int = 1024
    learning_rate: float = 1e-3
    weight_decay: float = 1e-4
    dropout: float = 0.1
    max_epochs: int = 100
    patience: int = 10
    persona_out_dim: int | None = None  # defaults to the persona input dimension
    fused_dim: int = 128

    def __post_init__(self):
        if self.aggregation not in AGGREGATION_MODES:
            raise ValueError(f"aggregation must be one of {', '.join(AGGREGATION_MODES)}, "
                             f"got {self.aggregation!r}")
        if self.transfer not in TRANSFER_MODES:
            raise ValueError(f"transfer must be one of {', '.join(TRANSFER_MODES)}, "
                             f"got {self.transfer!r}")
        # each message leads with its field, and is written so that NaN fails each check
        if not self.lambda_dpl >= 0:
            raise ValueError("lambda_dpl must be nonnegative")
        if not self.tau > 0:
            raise ValueError("tau must be positive")
        if not self.tau < np.inf:
            raise ValueError("tau must be finite")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError("dropout must lie in [0, 1)")
        check_loop_settings(self, "max_epochs", fused_dim=1, persona_out_dim=1)


def transfer_parts(config: TrainConfig) -> tuple[str, ...]:
    """The source tables ("persona", "id") a trainer reads: none unless it
    transfers with a positive lambda."""
    if config.transfer == "none" or not config.lambda_dpl > 0:
        return ()
    anchor_parts, positives = TRANSFER_TABLE[config.transfer]
    return anchor_parts if positives == "doppelganger" else positives


@dataclass
class ModelInputs:
    """Frozen tensors the trainable model is built around."""

    user_ids: list[str]
    item_ids: list[str]
    persona_inputs: np.ndarray  # (U, 5, n) criterion embeddings
    item_semantics: np.ndarray  # (I, m)
    backbone_user: np.ndarray  # (U, d) pretrained ID embeddings
    backbone_item: np.ndarray  # (I, d)
    overlap_users: list[str] = field(default_factory=list)
    source_user_personas: np.ndarray | None = None  # (|U_o|, h), doppelganger keys
    source_user_backbone: np.ndarray | None = None  # (|U_o|, d), direct_id positives


class MultiTapModel:
    """Holds the parameter store and implements the joint objective."""

    def __init__(self, inputs: ModelInputs, config: TrainConfig, seed: int = 0):
        self.inputs = inputs
        self.config = config
        U, K, n = inputs.persona_inputs.shape
        if K != 5:
            raise ValueError(f"expected 5 criterion vectors per user, got {K}")
        self.n = n
        self.h_dim = config.persona_out_dim or n
        self.id_dim = inputs.backbone_user.shape[1]
        self.sem_dim = inputs.item_semantics.shape[1]
        self.dz = config.fused_dim
        self.rng = np.random.default_rng(seed)
        self.user_rows = {u: k for k, u in enumerate(inputs.user_ids)}
        self.item_rows = {i: k for k, i in enumerate(inputs.item_ids)}
        # each user row's row in the source tables, -1 outside the overlap
        overlap = {u: k for k, u in enumerate(inputs.overlap_users)}
        self.source_rows = np.array([overlap.get(u, -1) for u in inputs.user_ids], dtype=np.int64)
        # per transfer part: its source table and its width
        self.source_tables = {
            "persona": inputs.source_user_personas,
            "id": inputs.source_user_backbone,
        }
        self.part_widths = {"persona": self.h_dim, "id": self.id_dim}

        # Variance-preserving init. Criterion embeddings are unit-L2 rows
        # (coordinates ~1/sqrt(n)), so the first layer uses std 1 to bring
        # hidden coordinates to O(1); downstream layers scale by fan-in.
        # A flat tiny init leaves persona vectors with near-zero norms, which
        # collapses the scaled-dot doppelganger attention to uniform and
        # silences the contrastive term entirely.
        ffn_in = 5 * n if config.aggregation == "concat" else n
        ffn_std = 1.0 / np.sqrt(5.0) if config.aggregation == "concat" else 1.0
        agg_rng = np.random.default_rng(PERSONA_SPACE_SEED)
        store = ParameterStore()
        if config.aggregation == "self_attn":
            store.add("agg.mask", init_normal(agg_rng, (n,), std=1.0))
        store.add("agg.ffn_w", init_normal(agg_rng, (ffn_in, n), std=ffn_std))
        store.add("agg.ffn_b", np.zeros(n))
        store.add("agg.proj_w", init_normal(agg_rng, (n, self.h_dim), std=1.0 / np.sqrt(n)))
        store.add("agg.proj_b", np.zeros(self.h_dim))
        store.add(
            "fuse.user_w",
            init_normal(self.rng, (self.h_dim + self.id_dim, self.dz),
                        std=0.5 / np.sqrt(self.h_dim + self.id_dim)),
        )
        store.add("fuse.user_b", np.zeros(self.dz))
        store.add(
            "fuse.item_w",
            init_normal(self.rng, (self.sem_dim + self.id_dim, self.dz),
                        std=0.5 / np.sqrt(self.sem_dim + self.id_dim)),
        )
        store.add("fuse.item_b", np.zeros(self.dz))
        store.add("id.user", inputs.backbone_user.copy())
        store.add("id.item", inputs.backbone_item.copy())
        self.store = store

        parts = transfer_parts(config)
        if parts and not inputs.overlap_users:
            raise ValueError("transfer is enabled but there are no overlapping users")
        for part in parts:
            table, width = self.source_tables[part], self.part_widths[part]
            if table is None:
                raise ValueError(f"{config.transfer} needs source {part} embeddings")
            if table.shape[1] != width:
                raise ValueError(f"source {part} dimension {table.shape[1]} != target {width}")

    # -- forward/backward pieces ------------------------------------------

    def _persona_forward(self, user_rows: np.ndarray | slice, dropout_rng) -> dict:
        """Aggregated persona rows `h` of the users `user_rows` (a slice
        reads the table in place) and what the backward pass reads; the
        (B, 5, n) gather itself is not kept."""
        p = self.store.params
        E = self.inputs.persona_inputs[user_rows]  # (B, 5, n)
        mode = self.config.aggregation
        cache: dict = {"rows": user_rows, "mode": mode}
        if mode == "self_attn":
            logits = E @ p["agg.mask"] / np.sqrt(self.n)  # (B, 5)
            A = softmax(logits)
            pooled = np.einsum("bk,bkn->bn", A, E)
            cache["A"] = A
        elif mode == "mean":
            pooled = E.mean(axis=1)
        else:
            pooled = E.reshape(E.shape[0], -1)
        hid = np.tanh(affine(self.store, "agg.ffn", pooled))
        drop_mask = None
        if dropout_rng is not None and self.config.dropout > 0.0:
            keep = 1.0 - self.config.dropout
            drop_mask = (dropout_rng.random(hid.shape) < keep) / keep
            hid_d = hid * drop_mask
        else:
            hid_d = hid
        h = affine(self.store, "agg.proj", hid_d)
        cache.update(pooled=pooled, hid=hid, hid_d=hid_d, drop_mask=drop_mask, h=h)
        return cache

    def _persona_backward(self, cache: dict, dh: np.ndarray) -> None:
        hid = cache["hid"]
        dhid_d = affine_backward(self.store, "agg.proj", cache["hid_d"], dh)
        dhid = dhid_d * cache["drop_mask"] if cache["drop_mask"] is not None else dhid_d
        dhid_pre = dhid * (1.0 - hid * hid)
        dpooled = affine_backward(self.store, "agg.ffn", cache["pooled"], dhid_pre)
        if cache["mode"] == "self_attn":
            E = self.inputs.persona_inputs[cache["rows"]]  # gathered again, not held since the forward
            dA = np.einsum("bn,bkn->bk", dpooled, E)
            dlogits = softmax_backward(dA, cache["A"])
            self.store.grads["agg.mask"] += np.einsum("bk,bkn->n", dlogits, E) / np.sqrt(self.n)
        # mean/concat pooling has no trainable parameters and E is frozen

    def _fuse(self, side: str, features: np.ndarray, rows: np.ndarray | slice) -> dict:
        """Fusion head of `side` ("user" or "item"): the affine map
        "fuse.<side>" of [features, ID embedding] for the table rows `rows`."""
        x = np.concatenate([features, self.store.params[f"id.{side}"][rows]], axis=1)
        z = affine(self.store, f"fuse.{side}", x)
        return {"x": x, "z": z, "rows": rows, "side": side, "width": features.shape[1]}

    def _fuse_backward(self, cache: dict, dz: np.ndarray) -> np.ndarray:
        """Accumulates the head's and the ID rows' gradients; returns dL/dfeatures."""
        side, width = cache["side"], cache["width"]
        dx = affine_backward(self.store, f"fuse.{side}", cache["x"], dz)
        self.store.grads[f"id.{side}"][cache["rows"]] += dx[:, width:]
        return dx[:, :width]

    def doppelganger_weights(self, H: np.ndarray) -> np.ndarray:
        """(M, |U_o|) attention of target persona rows `H` over the source
        persona embeddings: softmax(H S^T / sqrt(h)). Row m's doppelganger
        is the convex combination `weights[m] @ S`."""
        S = self.inputs.source_user_personas
        return softmax(H @ S.T / np.sqrt(self.h_dim))

    def _transfer_term(
        self, anchors_local: np.ndarray, rows: np.ndarray, h: np.ndarray
    ) -> tuple[float, np.ndarray, dict]:
        """Mean InfoNCE over the batch anchors: local rows `anchors_local` of
        `h`, user rows `rows`, which must lie in the overlap.

        Returns (loss, dL/dh for all batch users, id-gradient scatter info).
        The doppelganger path recomputes the attention inside the loss so the
        gradient flows through both the anchor and the query."""
        anchor_parts, positive_parts = TRANSFER_TABLE[self.config.transfer]
        src_rows = self.source_rows[rows]
        anchor_tables = {"persona": h[anchors_local], "id": self.store.params["id.user"][rows]}
        X = _join([anchor_tables[part] for part in anchor_parts])
        if positive_parts == "doppelganger":
            S = self.inputs.source_user_personas
            W = self.doppelganger_weights(X)
            Y = W @ S
        else:
            Y = _join([self.source_tables[part][src_rows] for part in positive_parts])

        loss, dX, dY = info_nce(X, Y, self.config.tau)

        dh = np.zeros_like(h)
        id_grads: dict = {}
        start = 0
        for part in anchor_parts:
            width = self.part_widths[part]
            grad = dX[:, start : start + width]
            start += width
            if part == "id":
                id_grads = {"rows": rows, "grad": grad}
                continue
            if positive_parts == "doppelganger":
                dlogits = softmax_backward(dY @ S.T, W)
                grad = grad + dlogits @ S / np.sqrt(self.h_dim)
            dh[anchors_local] += grad
        return loss, dh, id_grads

    def batch_loss_and_grads(
        self,
        users: np.ndarray,
        pos_items: np.ndarray,
        neg_items: np.ndarray,
        dropout_rng=None,
    ) -> tuple[float, float, float]:
        """Accumulate gradients of L_total = mean BPR + lambda * mean InfoNCE.

        `users`, `pos_items`, `neg_items` are row indices; returns
        (L_total, L_rec, L_dpl)."""
        cfg = self.config
        batch_users, user_inv = np.unique(users, return_inverse=True)
        batch_items, item_inv = np.unique(
            np.concatenate([pos_items, neg_items]), return_inverse=True
        )
        T = users.shape[0]
        pos_local = item_inv[:T]
        neg_local = item_inv[T:]

        pcache = self._persona_forward(batch_users, dropout_rng)
        ucache = self._fuse("user", pcache["h"], batch_users)
        icache = self._fuse("item", self.inputs.item_semantics[batch_items], batch_items)

        zu_t = ucache.pop("z")[user_inv]
        zi = icache.pop("z")
        zi_diff = zi[pos_local] - zi[neg_local]
        del zi
        l_rec, dmargin = bpr(np.einsum("td,td->t", zu_t, zi_diff))
        dzu = scatter_rows(user_inv, dmargin[:, None] * zi_diff, batch_users.size)
        del zi_diff
        # the item rows' scatter input [dmargin * zu_t; -dmargin * zu_t], in one buffer
        dzi_terms = np.empty((2 * T, self.dz))
        np.multiply(dmargin[:, None], zu_t, out=dzi_terms[:T])
        np.negative(dzi_terms[:T], out=dzi_terms[T:])
        del zu_t
        dzi = scatter_rows(item_inv, dzi_terms, batch_items.size)
        del dzi_terms
        # the item head's backward writes only fuse.item_* and id.item, so it runs
        # before the user side's and its cache goes at once
        self._fuse_backward(icache, dzi)
        del icache, dzi

        l_dpl = 0.0
        dh_extra = None
        id_grads: dict = {}
        if transfer_parts(cfg):
            anchors_local = np.nonzero(self.source_rows[batch_users] >= 0)[0]
            if anchors_local.size >= 2:
                l_dpl, dh_extra, id_grads = self._transfer_term(
                    anchors_local, batch_users[anchors_local], pcache["h"]
                )

        dh = self._fuse_backward(ucache, dzu)
        if dh_extra is not None:
            dh = dh + cfg.lambda_dpl * dh_extra
        if id_grads:
            self.store.grads["id.user"][id_grads["rows"]] += cfg.lambda_dpl * id_grads["grad"]
        self._persona_backward(pcache, dh)

        total = l_rec + cfg.lambda_dpl * l_dpl
        if not np.isfinite(total):
            raise DivergenceError("non-finite training loss")
        return total, l_rec, l_dpl

    # -- evaluation-mode forward passes ------------------------------------

    def user_persona_vectors(self) -> np.ndarray:
        """(U, h) table of aggregated persona embeddings, no dropout."""
        return self._persona_forward(slice(None), None)["h"]

    def score_matrix(self) -> np.ndarray:
        """(U, I) preference scores from the fused representations.  Each
        table is read in place through a full slice, which an index array
        would copy."""
        h = self._persona_forward(slice(None), None)["h"]
        zu = self._fuse("user", h, slice(None))["z"]
        zi = self._fuse("item", self.inputs.item_semantics, slice(None))["z"]
        return zu @ zi.T


def _join(parts: list[np.ndarray]) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


# Kept apart from gcn's sampler, which draws the whole batch first: another RNG stream.
def _sample_negatives(
    rng: np.random.Generator, users: np.ndarray, observed: list[set[int]], n_items: int
) -> np.ndarray:
    """One unobserved item per triple, drawn in triple order: a draw the
    user has seen is redrawn before the next triple draws (a user who has
    seen every item keeps the draw).  Each round draws one block of exactly
    as many values as triples remain, which is the stream scalar draws
    would consume."""
    negs = np.empty_like(users)
    rows = users.tolist()
    t = 0
    while t < len(rows):
        for draw in rng.integers(0, n_items, size=len(rows) - t).tolist():
            seen = observed[rows[t]]
            if draw in seen and len(seen) < n_items:
                continue  # this draw is rejected; the next value is the redraw
            negs[t] = draw
            t += 1
    return negs


@dataclass
class TrainResult:
    model: MultiTapModel
    history: list[dict]
    best_epoch: int


def train_target(
    inputs: ModelInputs,
    train_records: Sequence[InteractionRecord],
    valid_records: Sequence[InteractionRecord],
    config: TrainConfig,
    seed: int,
) -> TrainResult:
    """Joint training on the target domain with early stopping on valid HR@K."""
    model = MultiTapModel(inputs, config, seed)
    store = model.store
    rng = model.rng

    positives, observed = pair_index(train_records, model.user_rows, model.item_rows)
    if positives.size == 0:
        raise ValueError("no usable training interactions")
    n_items = len(inputs.item_ids)
    units = heldout_units(model.user_rows, inputs.item_ids, observed, valid_records)

    def run_epoch(epoch: int):
        order = rng.permutation(positives.shape[0])
        users_all, pos_all = positives[order, 0], positives[order, 1]
        neg_all = _sample_negatives(rng, users_all, observed, n_items)

        sum_rec = 0.0
        sum_dpl = 0.0
        n_batches = 0
        for start in range(0, users_all.size, config.batch_size):
            sl = slice(start, start + config.batch_size)
            _, l_rec, l_dpl = model.batch_loss_and_grads(
                users_all[sl], pos_all[sl], neg_all[sl], dropout_rng=rng
            )
            adam_step(store, config.learning_rate, config.weight_decay)
            sum_rec += l_rec
            sum_dpl += l_dpl
            n_batches += 1

        metrics = full_ranking_eval(model.score_matrix(), units, ks=[EARLY_STOP_K])
        stats = {
            "l_rec": sum_rec / n_batches,
            "l_dpl": sum_dpl / n_batches,
            "valid_hr": metrics["HR"][EARLY_STOP_K],
            "valid_ndcg": metrics["NDCG"][EARLY_STOP_K],
        }
        return stats, store.copy_params

    history, best_epoch, _, best = fit_early_stopped(run_epoch, config.max_epochs, config.patience)
    store.load_params(best)
    return TrainResult(model=model, history=history, best_epoch=best_epoch)
