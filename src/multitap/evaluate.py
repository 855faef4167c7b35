"""Full-ranking top-K evaluation: HR@K and NDCG@K with seed aggregation.

Every item the user has not touched in train is a candidate.  Each held-out
interaction is one evaluation unit; ties in score break by ascending item id
so rankings are deterministic across runs.  Users are ranked from rows of a
(U, I) score matrix; `train_items_by_user` builds their exclusion sets.
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

AVERAGES = ("interaction", "user")


def _rank(
    scores: np.ndarray, nan: np.ndarray, keep: np.ndarray, id_rank: np.ndarray, pos: int
) -> int:
    """1-based rank of candidate `pos` among the kept ones, ordered by
    descending score, then ascending id; NaN scores come after every other
    score, as in a sort on the negated scores."""
    smaller_id = id_rank < id_rank[pos]
    if nan[pos]:
        ahead = ~nan | smaller_id
    else:
        score = scores[pos]
        ahead = (scores > score) | ((scores == score) & smaller_id)
    return int(np.count_nonzero(ahead & keep)) + 1


def train_items_by_user(records: Iterable) -> dict[str, set[str]]:
    """The items each user touched in `records` (`.user_id`/`.item_id`)."""
    items: dict[str, set[str]] = {}
    for r in records:
        items.setdefault(r.user_id, set()).add(r.item_id)
    return items


def full_ranking_eval(
    scores: np.ndarray,
    user_rows: Mapping[str, int],
    item_ids: Sequence[str],
    train_items: Mapping[str, set[str]],
    heldout: Sequence,
    ks: Sequence[int] = (5,),
    average: str = "interaction",
) -> dict:
    """Evaluate held-out positives under the full-ranking protocol.

    Row `user_rows[user]` of the (U, I) matrix `scores` holds the user's
    scores, aligned with `item_ids`, which must be distinct.  `heldout`
    entries expose `.user_id` and `.item_id` (or are (user, item) pairs).
    Users without a row or without candidates are skipped and counted.
    `average` is "interaction" (each positive is one unit) or "user"
    (per-user means, then averaged across users).
    """
    if average not in AVERAGES:
        raise ValueError(f"unknown averaging mode '{average}'")
    ks = sorted(ks)
    by_user: dict[str, list[str]] = {}
    for entry in heldout:
        if hasattr(entry, "user_id"):
            user, item = entry.user_id, entry.item_id
        else:
            user, item = entry
        by_user.setdefault(user, []).append(item)

    per_user_hits: list[dict[int, float]] = []
    per_user_gains: list[dict[int, float]] = []
    per_user_units: list[int] = []
    units = 0
    skipped = 0
    id_index = {item: i for i, item in enumerate(item_ids)}
    if len(id_index) != len(item_ids):
        raise ValueError("item_ids contains duplicates")
    # position of each id in ascending string order, the tie-break key
    id_rank = np.empty(len(item_ids), dtype=np.int64)
    id_rank[np.argsort(np.asarray(item_ids), kind="stable")] = np.arange(len(item_ids))
    scores = np.asarray(scores, dtype=np.float64)
    for user in sorted(by_user):
        if user not in user_rows:
            skipped += len(by_user[user])
            continue
        row = scores[user_rows[user]]
        exclude = train_items.get(user, set())
        keep = np.ones(len(item_ids), dtype=bool)
        keep[[id_index[i] for i in exclude if i in id_index]] = False
        if not keep.any():
            skipped += len(by_user[user])
            continue
        nan = np.isnan(row)
        u_hits = {k: 0.0 for k in ks}
        u_gains = {k: 0.0 for k in ks}
        u_units = 0
        for item in by_user[user]:
            if item not in id_index or item in exclude:
                skipped += 1
                continue
            rank = _rank(row, nan, keep, id_rank, id_index[item])
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
    if skipped:
        logger.warning("full_ranking_eval skipped %d held-out units", skipped)

    def reduce(per_user: list[dict[int, float]], k: int) -> float:
        if not per_user:
            return 0.0
        if average == "interaction":
            return sum(d[k] for d in per_user) / units
        return float(
            np.mean([d[k] / n for d, n in zip(per_user, per_user_units)])
        )

    return {
        "units": units,
        "skipped": skipped,
        "HR": {k: reduce(per_user_hits, k) for k in ks},
        "NDCG": {k: reduce(per_user_gains, k) for k in ks},
    }


def aggregate_seed_reports(
    reports: Sequence[dict], ks: Sequence[int], expected_seeds: int | None = None
) -> dict:
    """Mean and std of each metric over per-seed reports."""
    if expected_seeds is not None and len(reports) != expected_seeds:
        raise ValueError(
            f"expected {expected_seeds} seed reports, got {len(reports)}"
        )
    metrics = []
    for metric in ("HR", "NDCG"):
        for k in sorted(ks):
            values = [float(r[metric][k]) for r in reports]
            metrics.append(
                {
                    "metric": metric,
                    "K": k,
                    "mean": float(np.mean(values)),
                    "std": float(np.std(values)),
                    "per_seed": values,
                }
            )
    return {
        "metrics": metrics,
        "seeds": len(reports),
        "units_per_seed": [r["units"] for r in reports],
        "skipped_per_seed": [r["skipped"] for r in reports],
    }
