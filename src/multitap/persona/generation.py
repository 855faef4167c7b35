"""Persona text generation: one structured client call yields all five texts.

Responses are parsed against the fixed output schema (five named profile
fields, each with a `persona` string); a malformed response gets exactly one
regeneration attempt.  Results are cached on disk keyed by a content hash of
the payload, client identity and instruction, as the domain description is
(`prompts.build_domain_description`, by the settings that sample it), so
repeated runs make zero client calls.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

from ..errors import MalformedResponseError
from ..idh import CRITERIA_ORDER, Criterion
from ..util import content_key
from .cache import JsonCache, cache_batch
from .clients import GeneratorClient
from .database import PersonaDB
from .prompts import PERSONA_SYSTEM_PROMPT, PROFILE_KEYS, PromptAssets, persona_payload


@dataclass
class PersonaText:
    user_id: str
    texts: dict[Criterion, str]
    provenance: str
    cache_key: str

    def ordered_texts(self) -> list[str]:
        return [self.texts[c] for c in CRITERIA_ORDER]


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


def _generate(user_id: str, payload: dict, key: str, client: GeneratorClient) -> PersonaText:
    raw = client.personas(payload)
    try:
        texts = parse_persona_response(raw, user_id)
    except MalformedResponseError:
        raw = client.personas(payload)  # one reparse attempt
        texts = parse_persona_response(raw, user_id)
    return PersonaText(
        user_id=user_id,
        texts=texts,
        provenance=getattr(client, "provenance", "llm"),
        cache_key=key,
    )


def generate_all_personas(
    dbs: Mapping[str, PersonaDB],
    assets: PromptAssets,
    histories: Mapping[str, Sequence[tuple]],
    client: GeneratorClient,
    cache: JsonCache | None = None,
    parallelism: int = 1,
) -> dict[str, PersonaText]:
    """Generate texts for many users, optionally with bounded concurrency.

    The cache is read once; users it lacks go to the client, and their texts
    are written back as one batch from the calling thread."""
    users = sorted(dbs)
    payloads = {
        u: persona_payload(
            user_id=u,
            domain_id=assets.domain_id,
            domain_description=assets.domain_description,
            level_maps=dbs[u].labels,
            diversity=dbs[u].diversity,
            history=histories.get(u, ()),
        )
        for u in users
    }
    keys = {
        u: content_key(
            {"payload": payloads[u], "client": client.identity, "instruction": PERSONA_SYSTEM_PROMPT}
        )
        for u in users
    }
    out: dict[str, PersonaText] = {}
    with cache_batch(cache, keys.values()) as (stored, new):
        missing = []
        for u in users:
            hit = stored.get(keys[u])
            if hit is None:
                missing.append(u)
            else:
                out[u] = PersonaText(
                    user_id=u,
                    texts={Criterion(k): v for k, v in hit["texts"].items()},
                    provenance=hit["provenance"],
                    cache_key=keys[u],
                )

        def generate(u: str) -> PersonaText:
            return _generate(u, payloads[u], keys[u], client)

        def keep(text: PersonaText) -> None:
            out[text.user_id] = text
            new[text.cache_key] = {
                "user_id": text.user_id,
                "texts": {c.value: t for c, t in text.texts.items()},
                "provenance": text.provenance,
            }

        if parallelism <= 1:
            for u in missing:
                keep(generate(u))
        else:
            with ThreadPoolExecutor(max_workers=parallelism) as pool:
                for text in pool.map(generate, missing):
                    keep(text)
    return {u: out[u] for u in users}
