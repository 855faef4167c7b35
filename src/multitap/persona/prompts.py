"""Prompt inputs: system prompts, offline templates and payload builders.

The generation payloads use a fixed key vocabulary (the per-criterion level
map keys of `LEVEL_MAP_KEYS`, `overall_category_diversity`, `History`) and
the structured output carries exactly five named persona fields.  The same
payloads drive both the remote chat client and the deterministic template
client, so one parser reads both (`generation.parse_persona_response`).
The description payload samples a domain's items
(`sample_description_items`); `generation` asks for and caches both texts.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Sequence

from ..corpus import DomainDataset, InteractionRecord, ItemMeta
from ..idh import Criterion, Label

PERSONA_SYSTEM_PROMPT = (
    "You analyze e-commerce users. From the given domain, domain description, "
    "per-category level maps and interaction history, write FIVE separate persona "
    "descriptions, one per criterion, in this order: "
    "1. price sensitivity, 2. quality preference, 3. popularity bias, "
    "4. category familiarity, 5. category diversity. "
    "Each persona is 3-4 sentences and must only restate the evidence provided "
    "(H=High, M=Middle, L=Low per category). "
    'Answer as JSON: {"User ID": "...", "Profiles": {'
    '"price_centric": {"persona": "..."}, '
    '"quality_centric": {"persona": "..."}, '
    '"popularity_centric": {"persona": "..."}, '
    '"category_familiarity": {"persona": "..."}, '
    '"category_diversity": {"persona": "..."}}}'
)

DESCRIPTION_SYSTEM_PROMPT = (
    "You summarize an e-commerce domain. Using only the sampled item metadata "
    "provided, write a concise 2-3 sentence description of what the domain sells "
    "and what buyers care about. "
    'Answer as JSON: {"Domain": "...", "Domain Profile": {"Domain Description": "..."}}'
)

# Payload key of each criterion's per-category level map, in payload order.
LEVEL_MAP_KEYS: dict[Criterion, str] = {
    Criterion.PS: "category_price_level",
    Criterion.QP: "category_rating_level",
    Criterion.PB: "category_popularity_level",
    Criterion.CF: "category_familiarity_level",
}

# Output keys in criterion order; CF historically appears under two names.
PROFILE_KEYS: dict[Criterion, tuple[str, ...]] = {
    Criterion.PS: ("price_centric",),
    Criterion.QP: ("quality_centric",),
    Criterion.PB: ("popularity_centric",),
    Criterion.CF: ("category_familiarity", "category_preference"),
    Criterion.CD: ("category_diversity",),
}

# One sentence pattern per (criterion, label); categories are interpolated.
# Each level carries its own vocabulary (as a language model's wording
# would), so the degenerate encoder still separates levels.
TEMPLATE_SENTENCES: dict[Criterion, dict[str, str]] = {
    Criterion.PS: {
        "H": (
            "prefers higher-priced items in {category}, leaning premium, "
            "upscale, expensive, high-end when shopping {category}"
        ),
        "M": (
            "keeps to mid-priced items in {category}, leaning average, "
            "midrange, moderate, middling when shopping {category}"
        ),
        "L": (
            "leans toward budget-priced items in {category}, leaning cheap, "
            "economical, low-cost, bargain when shopping {category}"
        ),
    },
    Criterion.QP: {
        "H": (
            "favors highly rated items in {category}, seeking excellent, "
            "top-scored, acclaimed, outstanding quality in {category}"
        ),
        "M": (
            "accepts moderately rated items in {category}, seeking decent, "
            "fair, middle-scored, acceptable quality in {category}"
        ),
        "L": (
            "tolerates low-rated items in {category}, seeking unproven, "
            "poorly-scored, criticized, weak quality in {category}"
        ),
    },
    Criterion.PB: {
        "H": (
            "gravitates to widely reviewed items in {category}, following "
            "popular, mainstream, bestselling, trending picks in {category}"
        ),
        "M": (
            "picks moderately reviewed items in {category}, following "
            "known, established, familiar, common picks in {category}"
        ),
        "L": (
            "chooses rarely reviewed items in {category}, following niche, "
            "obscure, undiscovered, overlooked picks in {category}"
        ),
    },
    Criterion.CF: {
        "H": (
            "engages deeply with {category}, a veteran, devoted, frequent, "
            "seasoned shopper of {category}"
        ),
        "M": (
            "is moderately familiar with {category}, a returning, casual, "
            "occasional, intermittent shopper of {category}"
        ),
        "L": (
            "has only light exposure to {category}, a newcomer, novice, "
            "first-time, unfamiliar shopper of {category}"
        ),
    },
    Criterion.CD: {
        "H": (
            "explores a broad range of categories in this domain, roaming "
            "widely, adventurously, eclectically across the catalog"
        ),
        "M": (
            "explores a moderate range of categories in this domain, mixing "
            "a few staple areas with occasional detours across the catalog"
        ),
        "L": (
            "sticks to a narrow set of categories in this domain, staying "
            "focused, specialized, loyal within the catalog"
        ),
    },
}

TEMPLATE_EMPTY_SENTENCES: dict[Criterion, str] = {
    Criterion.PS: "shows no price signal in this domain",
    Criterion.QP: "shows no rating-quality signal in this domain",
    Criterion.PB: "shows no popularity signal in this domain",
    Criterion.CF: "shows no category familiarity signal in this domain",
    Criterion.CD: "shows no category diversity signal in this domain",
}


# Items sampled for the domain description, and history rows per persona payload.
DESCRIPTION_ITEMS = 100
HISTORY_LIMIT = 30


def sample_description_items(dataset: DomainDataset) -> list[ItemMeta]:
    """Representative items: 50 most-interacted plus 50 top-rated, deduped.

    If the two lists overlap, further items are backfilled by interaction
    rank until `DESCRIPTION_ITEMS` (or the catalog) is exhausted.
    """
    counts = Counter(rec.item_id for rec in dataset.interactions)
    by_interactions = sorted(dataset.items.values(), key=lambda m: (-counts[m.item_id], m.item_id))
    by_rating = sorted(
        dataset.items.values(), key=lambda m: (-m.avg_rating, -m.rating_count, m.item_id)
    )
    half = DESCRIPTION_ITEMS // 2
    chosen: dict[str, ItemMeta] = {}
    for meta in by_interactions[:half]:
        chosen[meta.item_id] = meta
    for meta in by_rating[:half]:
        chosen.setdefault(meta.item_id, meta)
    target = min(DESCRIPTION_ITEMS, len(dataset.items))
    for meta in by_interactions:
        if len(chosen) >= target:
            break
        chosen.setdefault(meta.item_id, meta)
    return sorted(chosen.values(), key=lambda m: (-counts[m.item_id], m.item_id))


def description_payload(dataset: DomainDataset, items: Sequence[ItemMeta]) -> dict:
    return {
        "Domain": dataset.domain_id,
        "sampled_item_list": {
            m.item_id: f"{m.title} || {m.category}" for m in items
        },
    }


def persona_payload(
    user_id: str,
    domain_id: str,
    domain_description: str,
    level_maps: Mapping[Criterion, Mapping[str, Label]],
    diversity: Label,
    history: Sequence[tuple[InteractionRecord, ItemMeta, str | None]],
) -> dict:
    """Structured generation input: level maps plus recent history snippets."""

    def levels(criterion: Criterion) -> dict[str, str]:
        return {
            category: label.code
            for category, label in sorted(level_maps.get(criterion, {}).items())
        }

    return {
        "Domain": domain_id,
        "Domain description": domain_description,
        "User ID": user_id,
        **{key: levels(criterion) for criterion, key in LEVEL_MAP_KEYS.items()},
        "overall_category_diversity": diversity.code,
        "History": [
            {
                "item_id": meta.item_id,
                "title": meta.title,
                "category": meta.category,
                "average_rating": meta.avg_rating,
                "rating_number": meta.rating_count,
                "user_rating": rec.rating,
                "cat_item_price_tag": price_tag,
            }
            for rec, meta, price_tag in history
        ],
    }


def recent_history(
    dataset: DomainDataset,
    user_id: str,
    price_bins: Mapping[str, Mapping[str, int]],
) -> list[tuple[InteractionRecord, ItemMeta, str | None]]:
    """The user's most recent `HISTORY_LIMIT` interactions, newest first, each
    with its item's price tag from the PS bin maps `{category: {item: bin}}`,
    None for an item the maps do not bin."""
    rows = sorted(
        dataset.user_records.get(user_id, ()), key=lambda r: (-r.timestamp, r.item_id)
    )
    out = []
    for rec in rows[:HISTORY_LIMIT]:
        meta = dataset.items[rec.item_id]
        b = price_bins.get(meta.category, {}).get(rec.item_id)
        out.append((rec, meta, None if b is None else Label(b).code))
    return out
