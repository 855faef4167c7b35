"""Generator and encoder clients.

Two implementations of each interface: a remote chat/embedding API client
(OpenAI-style endpoints, key from an environment variable, a fixed retry
policy with exponential backoff) and a deterministic offline fallback that
needs no network.  `build_clients` builds both from `ClientSettings`, the
`client` section of the pipeline config; a client's `identity` names the
settings that change its output.  The offline generator verbalizes the
structured evidence through fixed sentence templates; the offline encoder is
a feature-hashing bag-of-words embedder with unit L2 norm and a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from ..errors import ClientError
from ..idh import CRITERIA_ORDER, Criterion
from ..util import require_at_least
from .prompts import (
    DESCRIPTION_SYSTEM_PROMPT,
    LEVEL_MAP_KEYS,
    PERSONA_SYSTEM_PROMPT,
    PROFILE_KEYS,
    TEMPLATE_EMPTY_SENTENCES,
    TEMPLATE_SENTENCES,
)

API_KEY_ENV = "MULTITAP_API_KEY"

# Remote calls: attempts per request, the sleep before the second attempt
# (doubling before each later one) and the per-request timeout, in seconds.
ATTEMPTS = 3
BACKOFF_S = 1.0
TIMEOUT_S = 60.0

MODE_WIDTHS = {"offline": (256, 128), "remote": (3072, 512)}  # (persona, item) encoder widths
CLIENT_MODES = tuple(MODE_WIDTHS)


@dataclass
class ClientSettings:
    """The `client` section.  `persona_dim` and `item_dim` size the encoders
    of either mode; an unset one reads the mode's width from `MODE_WIDTHS`."""

    mode: str = "offline"
    persona_dim: int | None = None
    item_dim: int | None = None
    chunk_size: int = 256
    parallelism: int = 1
    endpoint: str = "https://api.openai.com/v1"
    chat_model: str = "gpt-4o"
    embed_model: str = "text-embedding-3-large"
    persona_temperature: float = 0.7
    description_temperature: float = 1.0

    def __post_init__(self):
        # sizes that cannot embed or batch anything, rejected before any stage runs
        require_at_least(self, dict.fromkeys(
            ("persona_dim", "item_dim", "chunk_size", "parallelism"), 1))

    @property
    def widths(self) -> tuple[int, int]:
        """The (persona, item) encoder widths, resolved on read, as `persona
        --offline` replaces the mode of a built section."""
        persona, item = MODE_WIDTHS[self.mode]
        return self.persona_dim or persona, self.item_dim or item


class GeneratorClient(Protocol):
    identity: str
    description_identity: str  # the settings that change `domain_description` alone

    def personas(self, payload: dict) -> str: ...

    def domain_description(self, payload: dict) -> str: ...


class EncoderClient(Protocol):
    identity: str
    dim: int

    def embed(self, texts: Sequence[str]) -> np.ndarray: ...


class TemplateGenerator:
    """Offline verbalizer: maps each (criterion, category, label) to a fixed
    sentence, so identical inputs always produce identical texts."""

    def __init__(self):
        self.identity = self.description_identity = "template-v1"
        self.calls = 0

    def personas(self, payload: dict) -> str:
        self.calls += 1
        profiles: dict[str, dict[str, str]] = {}
        for criterion in CRITERIA_ORDER:
            key = PROFILE_KEYS[criterion][0]
            profiles[key] = {"persona": self._criterion_text(criterion, payload)}
        return json.dumps({"User ID": payload["User ID"], "Profiles": profiles})

    def _criterion_text(self, criterion: Criterion, payload: dict) -> str:
        if criterion is Criterion.CD:
            code = payload.get("overall_category_diversity")
            if not code:
                return f"This user {TEMPLATE_EMPTY_SENTENCES[criterion]}."
            return f"This user {TEMPLATE_SENTENCES[criterion][code]}."
        levels = payload.get(LEVEL_MAP_KEYS[criterion]) or {}
        if not levels:
            return f"This user {TEMPLATE_EMPTY_SENTENCES[criterion]}."
        parts = [
            TEMPLATE_SENTENCES[criterion][code].format(category=category)
            for category, code in sorted(levels.items())
        ]
        return "This user " + ", and ".join(parts) + "."

    def domain_description(self, payload: dict) -> str:
        self.calls += 1
        snippets = payload.get("sampled_item_list", {})
        categories: dict[str, int] = {}
        for text in snippets.values():
            category = text.split("||")[-1].strip()
            categories[category] = categories.get(category, 0) + 1
        top = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        listing = ", ".join(name for name, _ in top) if top else "a mix of goods"
        description = (
            f"The {payload['Domain']} domain sells items across categories such as "
            f"{listing}. Buyers weigh price, ratings and review volume when choosing "
            f"within these categories."
        )
        return json.dumps(
            {"Domain": payload["Domain"], "Domain Profile": {"Domain Description": description}}
        )


class HashingEncoder:
    """Seeded feature-hashing encoder over unigrams and bigrams, unit L2 norm.

    Bigrams keep short phrase distinctions ("higher priced" vs "budget
    priced") that single-token bags wash out.  Each distinct feature is
    hashed once per instance: its (slot, sign) pair is memoised, so repeated
    template phrases cost a dict lookup."""

    def __init__(self, dim: int, seed: int):
        if dim <= 0:
            raise ValueError("encoder dimension must be positive")
        self.dim = dim
        self.seed = seed
        self.identity = f"hashing-v2-d{dim}-s{seed}"
        self.calls = 0
        self._slots: dict[str, tuple[int, float]] = {}

    def _features(self, text: str) -> list[str]:
        tokens = re.findall(r"[a-z0-9]+", text.lower())
        return tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]

    def _slot(self, feature: str) -> tuple[int, float]:
        digest = hashlib.blake2b(
            f"{self.seed}:{feature}".encode("utf-8"), digest_size=8
        ).digest()
        value = int.from_bytes(digest, "little")
        return value % self.dim, 1.0 if (value >> 62) & 1 else -1.0

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        self.calls += 1
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        memo = self._slots
        for row, text in enumerate(texts):
            pairs = []
            for feature in self._features(text):
                pair = memo.get(feature)
                if pair is None:
                    pair = memo[feature] = self._slot(feature)
                pairs.append(pair)
            if pairs:
                slots, signs = zip(*pairs)
                # bins hold small integer sums, exact in any order
                out[row] = np.bincount(slots, weights=signs, minlength=self.dim)
            norm = np.linalg.norm(out[row])
            if norm == 0.0:
                # text with no tokens still needs a valid unit vector
                out[row, 0] = 1.0
            else:
                out[row] /= norm
        return out


def _api_key() -> str:
    key = os.environ.get(API_KEY_ENV)
    if not key:
        raise ClientError(f"remote client requires the {API_KEY_ENV} environment variable")
    return key


class _RemoteBase:
    def __init__(self, settings: ClientSettings, session=None):
        self.settings = settings
        if session is None:
            import requests

            session = requests.Session()
        self._session = session

    def _post(self, path: str, body: dict) -> dict:
        """POST with retries on network errors, 429 and 5xx; any other 4xx,
        and a request that cannot be sent (a malformed URL or header), fails
        at once.  Backoff doubles between attempts, none after the last."""
        url = self.settings.endpoint.rstrip("/") + path
        headers = {"Authorization": f"Bearer {_api_key()}"}
        last_error: Exception | None = None
        for attempt in range(ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_S * 2 ** (attempt - 1))
            try:
                resp = self._session.post(url, json=body, headers=headers, timeout=TIMEOUT_S)
            except OSError as exc:  # requests' exceptions are OSErrors too
                if isinstance(exc, ValueError):  # requests' InvalidURL, MissingSchema, ...
                    raise ClientError(f"request to {url} cannot be sent: {exc}") from exc
                last_error = exc
                continue
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = ClientError(f"status {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise ClientError(f"request rejected ({resp.status_code}): {resp.text}")
            try:
                return resp.json()
            except ValueError as exc:
                raise ClientError(f"response from {url} is not JSON: {exc}") from exc
        raise ClientError(f"remote call to {url} failed after {ATTEMPTS} attempts: {last_error}")


class RemoteGenerator(_RemoteBase):
    def __init__(self, settings: ClientSettings, session=None):
        super().__init__(settings, session)
        self.identity = (f"remote-{settings.chat_model}-t{float(settings.persona_temperature)}"
                         f"-{float(settings.description_temperature)}")
        self.description_identity = (
            f"remote-{settings.chat_model}-t{float(settings.description_temperature)}")

    def _chat(self, system_prompt: str, payload: dict, temperature: float) -> str:
        body = {
            "model": self.settings.chat_model,
            "temperature": temperature,
            "response_format": {"type": "json_object"},
            "messages": [
                {"role": "system", "content": system_prompt},
                {"role": "user", "content": json.dumps(payload)},
            ],
        }
        data = self._post("/chat/completions", body)
        try:
            return data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ClientError(f"unexpected chat response shape: {exc}") from exc

    def personas(self, payload: dict) -> str:
        return self._chat(PERSONA_SYSTEM_PROMPT, payload, self.settings.persona_temperature)

    def domain_description(self, payload: dict) -> str:
        return self._chat(
            DESCRIPTION_SYSTEM_PROMPT, payload, self.settings.description_temperature
        )


class RemoteEncoder(_RemoteBase):
    def __init__(self, settings: ClientSettings, dim: int, session=None):
        super().__init__(settings, session)
        self.dim = dim
        self.identity = f"remote-{settings.embed_model}-d{dim}"

    def embed(self, texts: Sequence[str]) -> np.ndarray:
        body = {
            "model": self.settings.embed_model,
            "input": list(texts),
            "dimensions": self.dim,
        }
        data = self._post("/embeddings", body)
        try:
            rows = sorted(data["data"], key=lambda d: d["index"])
            out = np.array([row["embedding"] for row in rows], dtype=np.float64)
        except (KeyError, TypeError) as exc:
            raise ClientError(f"unexpected embedding response shape: {exc}") from exc
        if out.shape != (len(texts), self.dim):
            raise ClientError(f"embedding shape {out.shape} != ({len(texts)}, {self.dim})")
        return out


def build_clients(settings: ClientSettings) -> tuple[GeneratorClient, EncoderClient, EncoderClient]:
    """The persona stage's generator, persona encoder and item encoder.  Their
    identities name every setting that changes what they return, and nothing
    else: `chunk_size`, `parallelism` and `endpoint` only deploy them."""
    if settings.mode == "offline":  # hashing seed 7: identities "hashing-v2-d<dim>-s7"
        return (TemplateGenerator(), *(HashingEncoder(width, 7) for width in settings.widths))
    return (RemoteGenerator(settings), *(RemoteEncoder(settings, w) for w in settings.widths))
