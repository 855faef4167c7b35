"""Persona construction: databases, text generation, dense encoding."""

from .cache import JsonCache
from .clients import (
    API_KEY_ENV,
    ClientSettings,
    EncoderClient,
    GeneratorClient,
    HashingEncoder,
    RemoteEncoder,
    RemoteGenerator,
    TemplateGenerator,
)
from .database import PersonaDB, build_all_persona_dbs
from .encoding import (
    encode_item_batch,
    encode_personas,
    item_semantic_text,
)
from .generation import (
    build_domain_description,
    generate_all_personas,
    parse_persona_response,
)
from .prompts import (
    description_payload,
    persona_payload,
    recent_history,
    sample_description_items,
)

__all__ = [
    "API_KEY_ENV",
    "ClientSettings",
    "EncoderClient",
    "GeneratorClient",
    "HashingEncoder",
    "JsonCache",
    "PersonaDB",
    "RemoteEncoder",
    "RemoteGenerator",
    "TemplateGenerator",
    "build_all_persona_dbs",
    "build_domain_description",
    "description_payload",
    "encode_item_batch",
    "encode_personas",
    "generate_all_personas",
    "item_semantic_text",
    "parse_persona_response",
    "persona_payload",
    "recent_history",
    "sample_description_items",
]
