"""Dense encoding of persona texts and item metadata.

Vectors stay arrays from the encoder to the checkpoint.  `encode_personas`
returns a (U, 5, d) array, one (5, d) stack per user in input order with its
rows in `CRITERIA_ORDER`, from a single encoder call per uncached user.
`encode_item_batch` returns an (I, d) array in input order; an item is
encoded from the domain description concatenated with its category, in
configurable chunks.  Both cache on content hashes, with one cache read and
at most one cache write per call.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..corpus import ItemMeta
from ..idh import CRITERIA_ORDER
from ..util import content_key
from .cache import JsonCache, cache_batch
from .clients import EncoderClient
from .generation import PersonaText


def encode_personas(
    texts: Sequence[PersonaText], encoder: EncoderClient, cache: JsonCache | None = None
) -> np.ndarray:
    """The (U, 5, d) vectors of each user's five criterion texts, one
    encoder call per user whose texts are not cached; one cache read and at
    most one write."""
    for text in texts:
        missing = [c.value for c in CRITERIA_ORDER if c not in text.texts]
        if missing:
            raise ValueError(f"persona texts missing criteria: {missing}")
    keys = [
        content_key({"texts": t.ordered_texts(), "encoder": encoder.identity}) for t in texts
    ]
    with cache_batch(cache, keys) as (stored, new):
        for text, key in zip(texts, keys):
            if key in stored or key in new:
                continue
            matrix = encoder.embed(text.ordered_texts())
            if matrix.shape != (len(CRITERIA_ORDER), encoder.dim):
                raise ValueError(
                    f"encoder returned shape {matrix.shape}, expected (5, {encoder.dim})"
                )
            new[key] = matrix
    stored.update(new)
    return np.stack([stored[key] for key in keys])


def item_semantic_text(item: ItemMeta, domain_description: str) -> str:
    """Item-side encoder input: the domain description plus the item category."""
    return f"{domain_description} || {item.category}"


def encode_item_batch(
    items: Sequence[ItemMeta],
    domain_description: str,
    encoder: EncoderClient,
    chunk_size: int = 256,
    cache: JsonCache | None = None,
) -> np.ndarray:
    """The (I, d) vectors of `items`; those whose text is not cached go to
    the encoder in calls of `chunk_size`.  The cache is keyed per item text."""
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive")
    texts = [item_semantic_text(m, domain_description) for m in items]
    keys = [content_key({"text": t, "encoder": encoder.identity}) for t in texts]
    with cache_batch(cache, keys) as (stored, new):
        todo = [i for i, key in enumerate(keys) if key not in stored]
        for start in range(0, len(todo), chunk_size):
            chunk = todo[start : start + chunk_size]
            matrix = encoder.embed([texts[i] for i in chunk])
            for i, row in zip(chunk, matrix):
                new[keys[i]] = row
    stored.update(new)
    return np.stack([stored[key] for key in keys])
