"""Domain ingestion: interaction logs, item metadata, overlap and time splits.

A domain is a pair of JSONL files.  Interactions carry one
`{"user", "item", "rating", "ts"}` object per line; metadata carries
`{"item", "title", "category", "price", "avg_rating", "rating_count"}`.
Datasets are immutable after construction.  Their users, item ids and
categories are computed when a dataset is built; the per-user and
per-(user, category) views are built on first read, so a dataset whose
views nothing reads (a full corpus before its split) never holds them.
Records are slotted, and one load keeps one string object per distinct id.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    DegenerateSplitError,
    DuplicateInteractionError,
    EmptyOverlapError,
    ParseError,
    UnknownItemError,
)


@dataclass(frozen=True, slots=True)
class InteractionRecord:
    user_id: str
    item_id: str
    rating: float
    timestamp: int


@dataclass(frozen=True, slots=True)
class ItemMeta:
    item_id: str
    title: str
    category: str
    price: float | None
    avg_rating: float
    rating_count: int


@dataclass
class DomainDataset:
    """One domain: its interactions, catalog, users, item ids and categories.

    `user_category_items[u][c]` is a Counter over item ids (interaction
    multiplicity preserved), `user_records[u]` the user's interactions in
    input order; both are built on first read, users in order of their
    first interaction.  An interaction whose item is not in the catalog
    raises UnknownItemError at construction.
    Treat instances as immutable once built.
    """

    domain_id: str
    interactions: tuple[InteractionRecord, ...]
    items: dict[str, ItemMeta]
    users: frozenset[str] = field(init=False)
    item_ids: frozenset[str] = field(init=False)
    categories: frozenset[str] = field(init=False)

    def __post_init__(self):
        for rec in self.interactions:
            if rec.item_id not in self.items:
                raise UnknownItemError(
                    self.domain_id, 0, f"interaction references unknown item '{rec.item_id}'"
                )
        self.users = frozenset(rec.user_id for rec in self.interactions)
        self.item_ids = frozenset(self.items)
        self.categories = frozenset(m.category for m in self.items.values())

    @classmethod
    def from_records(
        cls,
        domain_id: str,
        interactions: Iterable[InteractionRecord],
        items: Mapping[str, ItemMeta],
    ) -> "DomainDataset":
        return cls(domain_id=domain_id, interactions=tuple(interactions), items=dict(items))

    def summary(self) -> dict:
        """The domain id and its user, item and interaction counts."""
        return {"domain": self.domain_id, "users": len(self.users), "items": len(self.item_ids),
                "interactions": len(self.interactions)}

    @functools.cached_property
    def user_records(self) -> dict[str, list[InteractionRecord]]:
        records: dict[str, list[InteractionRecord]] = {}
        for rec in self.interactions:
            records.setdefault(rec.user_id, []).append(rec)
        return records

    @functools.cached_property
    def user_category_items(self) -> dict[str, dict[str, Counter]]:
        views: dict[str, dict[str, Counter]] = {}
        for rec in self.interactions:
            per_cat = views.setdefault(rec.user_id, {})
            category = self.items[rec.item_id].category
            if category not in per_cat:
                per_cat[category] = Counter()
            per_cat[category][rec.item_id] += 1
        return views

    def interaction_count(self, user_id: str, category: str) -> int:
        """|E_{u,c}|: number of the user's interactions with items of c."""
        per_cat = self.user_category_items.get(user_id, {})
        counter = per_cat.get(category)
        return 0 if counter is None else sum(counter.values())

    def distinct_items(self, user_id: str, category: str) -> list[str]:
        per_cat = self.user_category_items.get(user_id, {})
        counter = per_cat.get(category)
        return sorted(counter) if counter else []

    def users_in_category(self, category: str) -> list[str]:
        return sorted(
            u for u, cats in self.user_category_items.items() if category in cats
        )

    def restricted_to(self, records: Sequence[InteractionRecord]) -> "DomainDataset":
        """Same catalog, different interaction slice (e.g. the train split)."""
        return DomainDataset.from_records(self.domain_id, records, self.items)


def _jsonl_lines(path: str | Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(str(path), lineno, f"invalid JSON: {exc.msg}") from exc
            if not isinstance(obj, dict):
                raise ParseError(str(path), lineno, "expected a JSON object")
            yield lineno, obj


def _require(obj: dict, key: str, path: str, lineno: int):
    if key not in obj:
        raise ParseError(path, lineno, f"missing field '{key}'")
    return obj[key]


def _text(obj: dict, key: str, path: str, lineno: int, empty_ok: bool = False) -> str:
    """A JSON string, nonempty unless `empty_ok`."""
    value = _require(obj, key, path, lineno)
    if not isinstance(value, str):
        raise ParseError(path, lineno, f"{key} {value!r} is not a string")
    if not (value or empty_ok):
        raise ParseError(path, lineno, f"{key} is empty")
    return value


def _number(obj: dict, key: str, path: str, lineno: int) -> float:
    """A finite JSON number; booleans, strings, NaN and infinities are rejected."""
    value = _require(obj, key, path, lineno)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(path, lineno, f"{key} {value!r} is not a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ParseError(path, lineno, f"{key} {value!r} is not finite")
    return number


def _whole(obj: dict, key: str, path: str, lineno: int) -> int:
    """An integer; a float is accepted only when it has no fractional part."""
    value = _require(obj, key, path, lineno)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(obj, key, path, lineno)
    if not number.is_integer():
        raise ParseError(path, lineno, f"{key} {value!r} is not a whole number")
    return int(number)


def load_metadata(path: str | Path) -> dict[str, ItemMeta]:
    items: dict[str, ItemMeta] = {}
    spath = str(path)
    for lineno, obj in _jsonl_lines(path):
        item_id = _text(obj, "item", spath, lineno)
        if item_id in items:
            raise ParseError(spath, lineno, f"duplicate metadata for item '{item_id}'")
        title = _text(obj, "title", spath, lineno, empty_ok=True)
        category = _text(obj, "category", spath, lineno)
        price = None if obj.get("price") is None else _number(obj, "price", spath, lineno)
        if price is not None and price < 0:
            raise ParseError(spath, lineno, f"price {price} is negative")
        avg_rating = _number(obj, "avg_rating", spath, lineno)
        if not (1.0 <= avg_rating <= 5.0):
            raise ParseError(spath, lineno, f"avg_rating {avg_rating} outside [1, 5]")
        rating_count = _whole(obj, "rating_count", spath, lineno)
        if rating_count < 0:
            raise ParseError(spath, lineno, f"rating_count {rating_count} is negative")
        items[item_id] = ItemMeta(item_id, title, category, price, avg_rating, rating_count)
    return items


def load_interactions(path: str | Path, items: Mapping[str, ItemMeta]) -> list[InteractionRecord]:
    """The interactions of `path`, each item id the catalog's own key object
    and each user id one object per distinct id."""
    records: list[InteractionRecord] = []
    seen: set[tuple[str, str, int]] = set()
    users: dict[str, str] = {}
    spath = str(path)
    for lineno, obj in _jsonl_lines(path):
        user = _text(obj, "user", spath, lineno)
        item = _text(obj, "item", spath, lineno)
        rating = _number(obj, "rating", spath, lineno)
        ts = _whole(obj, "ts", spath, lineno)
        if not (1.0 <= rating <= 5.0):
            raise ParseError(spath, lineno, f"rating {rating} outside [1, 5]")
        if ts < 0:
            raise ParseError(spath, lineno, f"timestamp {ts} is negative")
        meta = items.get(item)
        if meta is None:
            raise UnknownItemError(spath, lineno, f"unknown item '{item}'")
        user, item = users.setdefault(user, user), meta.item_id
        triple = (user, item, ts)
        if triple in seen:
            raise DuplicateInteractionError(
                spath, lineno, f"duplicate interaction {triple}"
            )
        seen.add(triple)
        records.append(InteractionRecord(user, item, rating, ts))
    return records


def load_domain(interactions_path: str | Path, metadata_path: str | Path, domain_id: str) -> DomainDataset:
    """Load one domain from its two JSONL files."""
    items = load_metadata(metadata_path)
    records = load_interactions(interactions_path, items)
    return DomainDataset.from_records(domain_id, records, items)


@dataclass(frozen=True)
class DomainPair:
    source: DomainDataset
    target: DomainDataset
    overlap: frozenset[str]


def build_domain_pair(source: DomainDataset, target: DomainDataset) -> DomainPair:
    overlap = frozenset(source.users & target.users)
    if not overlap:
        raise EmptyOverlapError(
            f"domains '{source.domain_id}' and '{target.domain_id}' share no users"
        )
    return DomainPair(source=source, target=target, overlap=overlap)


@dataclass(frozen=True)
class SplitBundle:
    train: tuple[InteractionRecord, ...]
    valid: tuple[InteractionRecord, ...]
    test: tuple[InteractionRecord, ...]


def time_split(
    dataset: DomainDataset, boundary_time: int, valid_fraction: float
) -> SplitBundle:
    """Chronological split: pre-boundary rows train, post-boundary rows are
    split per user into valid (earliest `valid_fraction`) and test.

    Post-boundary rows of users absent from train are dropped.
    """
    if not (0.0 < valid_fraction < 1.0):
        raise ValueError(f"valid_fraction {valid_fraction} outside (0, 1)")
    train = [r for r in dataset.interactions if r.timestamp < boundary_time]
    if not train:
        raise DegenerateSplitError(
            f"no interactions before boundary {boundary_time} in '{dataset.domain_id}'"
        )
    train_users = {r.user_id for r in train}
    post: dict[str, list[InteractionRecord]] = {}
    for r in dataset.interactions:
        if r.timestamp >= boundary_time and r.user_id in train_users:
            post.setdefault(r.user_id, []).append(r)
    valid: list[InteractionRecord] = []
    test: list[InteractionRecord] = []
    for user in sorted(post):
        rows = sorted(post[user], key=lambda r: (r.timestamp, r.item_id))
        n_valid = int(len(rows) * valid_fraction)
        valid.extend(rows[:n_valid])
        test.extend(rows[n_valid:])
    if not test:
        raise DegenerateSplitError(
            f"no post-boundary interactions for train users in '{dataset.domain_id}'"
        )
    return SplitBundle(train=tuple(train), valid=tuple(valid), test=tuple(test))
