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
from .database import (
    PersonaDB,
    build_all_persona_dbs,
    build_persona_db,
    category_diversity,
    category_diversity_label,
    category_familiarity_label,
    familiarity_counts,
)
from .encoding import (
    PersonaEmbeddingSet,
    encode_item_batch,
    encode_personas,
    item_semantic_text,
)
from .generation import (
    PersonaText,
    generate_all_personas,
    parse_persona_response,
)
from .prompts import (
    PromptAssets,
    build_domain_description,
    build_prompt_assets,
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
    "PersonaEmbeddingSet",
    "PersonaText",
    "PromptAssets",
    "RemoteEncoder",
    "RemoteGenerator",
    "TemplateGenerator",
    "build_all_persona_dbs",
    "build_domain_description",
    "build_persona_db",
    "build_prompt_assets",
    "category_diversity",
    "category_diversity_label",
    "category_familiarity_label",
    "description_payload",
    "encode_item_batch",
    "encode_personas",
    "familiarity_counts",
    "generate_all_personas",
    "item_semantic_text",
    "parse_persona_response",
    "persona_payload",
    "recent_history",
    "sample_description_items",
]
