"""Text generation: the domain description and each user's five persona texts.

`generate_texts` is the one generation path.  Each payload is keyed by its
content, the client identity and the instruction; payloads already in the
run's text cache are served, and the others go to the client, whose
response is parsed against its fixed output schema.  A malformed response
gets exactly one regeneration attempt.  The new entries are written as one
shard, so repeated runs make zero client calls.  `build_domain_description`
asks for one domain's description, and `generate_all_personas` for every
user's five criterion texts, which are written from that description.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Mapping, Sequence

from ..corpus import DomainDataset
from ..errors import MalformedResponseError
from ..idh import CRITERIA_ORDER, Criterion
from ..util import content_key
from .cache import JsonCache, cache_batch
from .clients import GeneratorClient
from .database import PersonaDB
from .prompts import (
    DESCRIPTION_SYSTEM_PROMPT,
    PERSONA_SYSTEM_PROMPT,
    PROFILE_KEYS,
    description_payload,
    persona_payload,
    sample_description_items,
)


def generate_texts(payloads: Mapping[str, dict], ask: Callable[[dict], str],
                   parse: Callable[[str, str], Any], identity: str, instruction: str,
                   cache: JsonCache, parallelism: int = 1) -> dict[str, Any]:
    """The cache entry of each named payload, in `payloads` order.

    `ask(payload)` is the client call and `parse(raw, name)` turns its
    response into the JSON value cached under the key of the payload, the
    client `identity` and the `instruction`.  A `MalformedResponseError` from
    `parse` asks once more.  The cache is read once; the payloads it lacks
    go to the client, `parallelism` at a time, and their entries are written
    as one shard from the calling thread, also when a later payload fails."""
    keys = {name: content_key({"payload": payload, "client": identity, "instruction": instruction})
            for name, payload in payloads.items()}
    with cache_batch(cache, keys.values()) as (stored, new):
        missing = [name for name, key in keys.items() if key not in stored]

        def generate(name: str) -> Any:
            try:
                return parse(ask(payloads[name]), name)
            except MalformedResponseError:
                return parse(ask(payloads[name]), name)  # one regeneration

        def keep(entries) -> None:
            for name, entry in zip(missing, entries):
                new[keys[name]] = entry

        if parallelism <= 1:  # a one-worker pool only adds its overhead
            keep(map(generate, missing))
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                keep(pool.map(generate, missing))
    stored.update(new)
    return {name: stored[key] for name, key in keys.items()}


def _parse_description(raw: str, domain_id: str) -> str:
    """The description text of a `DESCRIPTION_SYSTEM_PROMPT` response."""
    try:
        description = json.loads(raw)["Domain Profile"]["Domain Description"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedResponseError(
            f"domain description response for '{domain_id}' is malformed: {exc}"
        ) from exc
    if not isinstance(description, str) or not description.strip():
        raise MalformedResponseError(f"empty domain description for '{domain_id}'")
    return description.strip()


def build_domain_description(dataset: DomainDataset, client: GeneratorClient,
                             cache: JsonCache) -> str:
    """The domain's description, asked of the client for its sampled items.
    It is keyed by the client's `description_identity` (a remote client's
    chat model and description temperature), so a sampling client is asked
    once per domain and a change to the persona settings alone keeps it."""
    payload = description_payload(dataset, sample_description_items(dataset))
    return generate_texts(
        {dataset.domain_id: payload}, client.domain_description, _parse_description,
        client.description_identity, DESCRIPTION_SYSTEM_PROMPT, cache,
    )[dataset.domain_id]


def parse_persona_response(raw: str, user_id: str) -> dict[Criterion, str]:
    """Extract the five criterion texts; either CF key spelling is accepted."""
    try:
        obj = json.loads(raw)
        profiles = obj["Profiles"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedResponseError(
            f"persona response for '{user_id}' is not the expected JSON shape: {exc}"
        ) from exc
    texts: dict[Criterion, str] = {}
    for criterion in CRITERIA_ORDER:
        entry = None
        for key in PROFILE_KEYS[criterion]:
            if key in profiles:
                entry = profiles[key]
                break
        if entry is None:
            raise MalformedResponseError(
                f"persona response for '{user_id}' is missing '{PROFILE_KEYS[criterion][0]}'"
            )
        text = entry.get("persona") if isinstance(entry, dict) else entry
        if not isinstance(text, str) or not text.strip():
            raise MalformedResponseError(
                f"persona response for '{user_id}' has an empty '{PROFILE_KEYS[criterion][0]}'"
            )
        texts[criterion] = text.strip()
    return texts


def _persona_entry(raw: str, user_id: str) -> dict:
    return {"texts": {c.value: t for c, t in parse_persona_response(raw, user_id).items()}}


def generate_all_personas(dbs: Mapping[str, PersonaDB], domain_id: str, description: str,
                          histories: Mapping[str, Sequence[tuple]], client: GeneratorClient,
                          cache: JsonCache, parallelism: int) -> dict[str, dict[str, str]]:
    """Each user's texts, `{user: {criterion value: text}}`, users sorted;
    the payloads are written from the domain's description."""
    payloads = {u: persona_payload(u, domain_id, description, dbs[u].labels, dbs[u].diversity,
                                   histories.get(u, ())) for u in sorted(dbs)}
    entries = generate_texts(payloads, client.personas, _persona_entry, client.identity,
                             PERSONA_SYSTEM_PROMPT, cache, parallelism)
    return {u: entry["texts"] for u, entry in entries.items()}
