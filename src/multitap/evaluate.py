"""Full-ranking top-K evaluation: HR@K and NDCG@K with seed aggregation.

Every item the user has not touched in train is a candidate.  Each held-out
interaction is one evaluation unit; ties in score break by ascending item id
so rankings are deterministic across runs.  Users are ranked from rows of a
(U, I) score matrix; `train_items_by_user` builds their exclusion sets.

`full_ranking_eval` ranks every unit in one blocked pass: it resolves all
units to (score row, candidate column, user) first, then counts the kept
candidates ahead of each positive for blocks of at most `_BLOCK_CELLS` cells
(one row when a row alone is larger).  Only the ranking is blocked: every
caller passes a dense (U, I) score matrix.  Ranks are integer counts, and
hits and gains are summed per user in held-out order, so the result does not
depend on the block size.
"""

from __future__ import annotations

import logging
from typing import Iterable, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

AVERAGES = ("interaction", "user")

# cells (units x items) compared at once by the blocked rank count
_BLOCK_CELLS = 1 << 18


def _block_ranks(
    scores: np.ndarray,
    id_rank: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    slots: np.ndarray,
    excluded: np.ndarray,
    excluded_ptr: np.ndarray,
) -> list[int]:
    """1-based rank of candidate `cols[j]` in score row `rows[j]` for each
    unit j, among the columns its user keeps: all but
    `excluded[excluded_ptr[s]:excluded_ptr[s + 1]]` for `s = slots[j]`.
    Candidates are ordered by descending score, then ascending id rank; NaN
    scores come after every other score, as in a sort on the negated scores."""
    per_block = max(1, _BLOCK_CELLS // max(len(id_rank), 1))
    ranks: list[int] = []
    for a in range(0, len(rows), per_block):
        b = min(a + per_block, len(rows))
        block = scores[rows[a:b]]
        local = np.arange(b - a)
        pos = block[local, cols[a:b]][:, None]
        smaller_id = id_rank < id_rank[cols[a:b]][:, None]
        ahead = (block > pos) | ((block == pos) & smaller_id)
        nan_pos = np.isnan(pos[:, 0])
        if nan_pos.any():
            ahead[nan_pos] = ~np.isnan(block[nan_pos]) | smaller_id[nan_pos]
        # a user's excluded candidates are never ahead
        starts = excluded_ptr[slots[a:b]]
        lens = excluded_ptr[slots[a:b] + 1] - starts
        at = np.repeat(starts - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
        ahead[np.repeat(local, lens), excluded[at]] = False
        ranks += (np.count_nonzero(ahead, axis=1) + 1).tolist()
    return ranks


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

    skipped = 0
    id_index = {item: i for i, item in enumerate(item_ids)}
    if len(id_index) != len(item_ids):
        raise ValueError("item_ids contains duplicates")
    # position of each id in ascending string order, the tie-break key
    id_rank = np.empty(len(item_ids), dtype=np.int64)
    id_rank[np.argsort(np.asarray(item_ids), kind="stable")] = np.arange(len(item_ids))
    scores = np.asarray(scores, dtype=np.float64)

    # resolve every unit to (score row, candidate column, user slot)
    unit_rows: list[int] = []
    unit_cols: list[int] = []
    excluded: list[int] = []  # each ranked user's excluded columns, concatenated
    excluded_ptr = [0]
    per_user_units: list[int] = []
    for user in sorted(by_user):
        if user not in user_rows:
            skipped += len(by_user[user])
            continue
        exclude = train_items.get(user, set())
        u_excluded = {id_index[i] for i in exclude if i in id_index}
        if len(u_excluded) == len(item_ids):  # no candidate left
            skipped += len(by_user[user])
            continue
        u_units = 0
        for item in by_user[user]:
            if item not in id_index or item in exclude:
                skipped += 1
                continue
            unit_cols.append(id_index[item])
            u_units += 1
        if u_units:
            unit_rows += [user_rows[user]] * u_units
            excluded += u_excluded
            excluded_ptr.append(len(excluded))
            per_user_units.append(u_units)
    units = len(unit_cols)

    rows, cols, excluded_cols, excluded_ptr = (
        np.asarray(v, dtype=np.int64) for v in (unit_rows, unit_cols, excluded, excluded_ptr)
    )
    slots = np.repeat(np.arange(len(per_user_units)), per_user_units)
    ranks = _block_ranks(scores, id_rank, rows, cols, slots, excluded_cols, excluded_ptr)

    per_user_hits: list[dict[int, float]] = []
    per_user_gains: list[dict[int, float]] = []
    start = 0
    for u_units in per_user_units:
        u_hits = {k: 0.0 for k in ks}
        u_gains = {k: 0.0 for k in ks}
        for rank in ranks[start:start + u_units]:
            for k in ks:
                if rank <= k:
                    u_hits[k] += 1.0
                    u_gains[k] += 1.0 / np.log2(rank + 1)
        start += u_units
        per_user_hits.append(u_hits)
        per_user_gains.append(u_gains)
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
