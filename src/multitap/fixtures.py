"""Deterministic synthetic two-domain corpus with planted preference structure.

Users belong to the latent groups of `GROUP_PROFILES`; each group
concentrates its interactions in two preferred categories of `CATEGORIES`
and one price tier, consistently in both domains.  Both are constants: the
groups are written over exactly these four categories.
The source domain is interaction-rich and the target domain sparse, so a
user's group is easy to read from source behavior and noisy in the target.
How closely each domain's draws follow a group's preference is a constant
too (`_TRAIN_AFFINITY`, `_HELDOUT_AFFINITY`, `_SINGLE_VISIBLE_CATEGORY`):
`FixtureSpec` sets only the corpus's sizes and its seed.
Each item's average rating follows its price tier (`_build_items`), so
quality (qp) carries the planted price signal (ps) too; only the rating
count, popularity (pb), is uninformative noise by design.  In the demo's
source idh report, 0.68-0.86 of the users labelled "high" on ps or qp stay
high in another category, and 0.32-0.65 on pb.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .util import atomic_write_text

BOUNDARY_TS = 1546300800  # 2019-01-01T00:00:00Z

_TRAIN_ERA = (1451606400, BOUNDARY_TS - 86400)  # 2016..2018
_HELDOUT_ERA = (BOUNDARY_TS, 1640995200)  # 2019..2021

_TIER_PRICE = {1: (5.0, 15.0), 2: (25.0, 35.0), 3: (45.0, 60.0)}

CATEGORIES = ("alpha", "beta", "gamma", "delta")
# each group's (preferred categories, preferred price tier); user k of each
# user list (overlap, source-only, target-only) belongs to group k % 4
GROUP_PROFILES = (
    (("alpha", "beta"), 3),
    (("gamma", "delta"), 3),
    (("alpha", "beta"), 1),
    (("gamma", "delta"), 1),
)
# (category, price tier) affinity = probability a draw follows the group's
# preferred categories / price tier; the rich source is clean, the sparse
# target train slice is noisy, and held-out draws follow the true preference
_TRAIN_AFFINITY = {"source": (0.95, 0.95), "target": (0.9, 0.8)}
_HELDOUT_AFFINITY = (0.95, 0.8)
# Sparse target histories usually cover one facet of a user's taste: train
# draws concentrate on a single (per-user) preferred category while held-out
# interactions span the full preferred pair.
_SINGLE_VISIBLE_CATEGORY = {"source": False, "target": True}


@dataclass
class FixtureSpec:
    overlap_users: int = 200
    source_only_users: int = 20
    target_only_users: int = 20
    source_items_per_category: int = 48
    target_items_per_category: int = 12
    source_train_per_user: int = 25
    target_train_per_user: int = 4
    source_heldout_per_user: int = 4
    target_heldout_per_user: int = 8
    seed: int = 7


@dataclass
class FixturePaths:
    source_interactions: Path
    source_metadata: Path
    target_interactions: Path
    target_metadata: Path


_TIER_RATING = {1: 3.4, 2: 4.0, 3: 4.6}


def _build_items(rng: np.random.Generator, domain: str, per_category: int) -> list[dict]:
    items = []
    for cat in CATEGORIES:
        for j in range(per_category):
            tier = (j % 3) + 1
            lo, hi = _TIER_PRICE[tier]
            # average rating correlates with the price tier (price-quality
            # correlation); review counts stay uninformative noise
            rating = _TIER_RATING[tier] + float(rng.uniform(-0.3, 0.3))
            items.append(
                {
                    "item": f"{domain}-{cat}-{j:03d}",
                    "title": f"{cat} product {j:03d}",
                    "category": cat,
                    "price": round(float(rng.uniform(lo, hi)), 2),
                    "avg_rating": round(min(5.0, max(1.0, rating)), 1),
                    "rating_count": int(rng.integers(5, 500)),
                    "_tier": tier,
                }
            )
    return items


def _pick_item(
    rng: np.random.Generator,
    items_by_cat_tier: dict,
    preferred_cats: tuple[str, str],
    preferred_tier: int,
    affinities: tuple[float, float],
    exclude: set[str] = frozenset(),
) -> dict:
    category_affinity, tier_affinity = affinities
    for _ in range(40):
        if rng.random() < category_affinity:
            cat = preferred_cats[int(rng.integers(0, 2))]
        else:
            others = [c for c in CATEGORIES if c not in preferred_cats]
            cat = others[int(rng.integers(0, len(others)))]
        if rng.random() < tier_affinity:
            tier = preferred_tier
        else:
            tier = int(rng.integers(1, 4))
        bucket = items_by_cat_tier[(cat, tier)]
        fresh = [it for it in bucket if it["item"] not in exclude] if exclude else bucket
        if fresh:
            return fresh[int(rng.integers(0, len(fresh)))]
    # preference buckets exhausted; fall back to any unseen item
    leftovers = [
        it
        for bucket in items_by_cat_tier.values()
        for it in bucket
        if it["item"] not in exclude
    ]
    return leftovers[int(rng.integers(0, len(leftovers)))]


def _user_events(
    rng: np.random.Generator,
    domain: str,
    user: str,
    group: int,
    items_by_cat_tier: dict,
    n_train: int,
    n_heldout: int,
) -> list[dict]:
    preferred_cats, tier = GROUP_PROFILES[group]
    train_cats = preferred_cats
    if _SINGLE_VISIBLE_CATEGORY[domain]:
        visible = preferred_cats[int(rng.integers(0, 2))]
        train_cats = (visible, visible)
    events = []
    train_ts = np.sort(rng.integers(_TRAIN_ERA[0], _TRAIN_ERA[1], size=n_train))
    held_ts = np.sort(rng.integers(_HELDOUT_ERA[0], _HELDOUT_ERA[1], size=n_heldout))
    seen: set[str] = set()
    for k, ts in enumerate(train_ts):
        item = _pick_item(rng, items_by_cat_tier, train_cats, tier, _TRAIN_AFFINITY[domain])
        seen.add(item["item"])
        events.append(
            {
                "user": user,
                "item": item["item"],
                "rating": float(rng.integers(3, 6)),
                # offset keeps (user, item, ts) triples unique
                "ts": int(ts) + k,
            }
        )
    # held-out interactions hit items the user has not touched before, so
    # every one of them is rankable under the full-ranking protocol
    for k, ts in enumerate(held_ts):
        item = _pick_item(
            rng, items_by_cat_tier, preferred_cats, tier, _HELDOUT_AFFINITY, exclude=seen
        )
        seen.add(item["item"])
        events.append(
            {
                "user": user,
                "item": item["item"],
                "rating": float(rng.integers(3, 6)),
                "ts": int(ts) + n_train + k,
            }
        )
    return events


def generate_fixture(spec: FixtureSpec) -> dict:
    """Build both domains in memory: {'source': (events, items), 'target': ...}."""
    rng = np.random.default_rng(spec.seed)
    overlap = [f"u{k:04d}" for k in range(spec.overlap_users)]
    source_only = [f"s{k:04d}" for k in range(spec.source_only_users)]
    target_only = [f"t{k:04d}" for k in range(spec.target_only_users)]
    group_of = {u: k % len(GROUP_PROFILES)
                for users in (overlap, source_only, target_only) for k, u in enumerate(users)}

    out = {}
    for domain, users, per_cat, n_train, n_held in (
        ("source", overlap + source_only, spec.source_items_per_category,
         spec.source_train_per_user, spec.source_heldout_per_user),
        ("target", overlap + target_only, spec.target_items_per_category,
         spec.target_train_per_user, spec.target_heldout_per_user),
    ):
        items = _build_items(rng, domain, per_cat)
        by_cat_tier: dict = {}
        for it in items:
            by_cat_tier.setdefault((it["category"], it["_tier"]), []).append(it)
        events = []
        for user in users:
            events.extend(
                _user_events(rng, domain, user, group_of[user], by_cat_tier, n_train, n_held)
            )
        out[domain] = (events, [{k: v for k, v in it.items() if k != "_tier"} for it in items])
    return out


def fixture_config_dict(
    paths: "FixturePaths",
    run_dir: str | Path,
    seeds=(0, 1, 2, 3, 4),
    cache_dir: str | Path | None = None,
) -> dict:
    """Pipeline config tuned for the synthetic corpus (offline clients).

    The target trains slowly with regularization; the source prerequisite
    trains hotter and longer so its persona table separates the planted
    groups before it is frozen.
    """
    config = {
        "run_dir": str(run_dir),
        "source": {
            "domain_id": "source",
            "interactions": str(paths.source_interactions),
            "metadata": str(paths.source_metadata),
        },
        "target": {
            "domain_id": "target",
            "interactions": str(paths.target_interactions),
            "metadata": str(paths.target_metadata),
        },
        "split": {"boundary": BOUNDARY_TS, "valid_fraction": 0.5},
        "client": {"mode": "offline"},
        "gcn": {
            "dim": 128,
            "layers": 3,
            "learning_rate": 0.02,
            "epochs": 40,
            "patience": 8,
        },
        "train": {
            "aggregation": "self_attn",
            "transfer": "doppelganger",
            "lambda_dpl": 1.4,
            "tau": 0.5,
            "batch_size": 256,
            "learning_rate": 3e-3,
            "weight_decay": 1e-4,
            "dropout": 0.2,
            "max_epochs": 80,
            "patience": 20,
            "persona_out_dim": 32,
        },
        "source_train": {
            "aggregation": "self_attn",
            "batch_size": 1024,
            "learning_rate": 1e-2,
            "weight_decay": 1e-4,
            "dropout": 0.1,
            "max_epochs": 60,
            "patience": 20,
        },
        "seeds": list(seeds),
        "eval_ks": [5, 10],
    }
    if cache_dir is not None:
        config["cache_dir"] = str(cache_dir)
    return config


def write_fixture(directory: str | Path, spec: FixtureSpec) -> FixturePaths:
    """Write the synthetic corpus as the four JSONL files the loader expects."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    data = generate_fixture(spec)
    encode = json.JSONEncoder(sort_keys=True).encode  # json.dumps builds an encoder per call
    paths = {}
    for domain in ("source", "target"):
        events, items = data[domain]
        inter_path = directory / f"{domain}_interactions.jsonl"
        meta_path = directory / f"{domain}_metadata.jsonl"
        atomic_write_text(inter_path, "\n".join(map(encode, events)) + "\n")
        atomic_write_text(meta_path, "\n".join(map(encode, items)) + "\n")
        paths[domain] = (inter_path, meta_path)
    return FixturePaths(
        source_interactions=paths["source"][0],
        source_metadata=paths["source"][1],
        target_interactions=paths["target"][0],
        target_metadata=paths["target"][1],
    )
