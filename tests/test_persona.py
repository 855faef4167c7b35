"""Persona database, generation, encoding and client tests."""

import hashlib
import json
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multitap.corpus import DomainDataset, InteractionRecord, ItemMeta
from multitap.errors import ClientError, MalformedResponseError, MissingLabelError
from multitap.idh import (
    CRITERIA_ORDER,
    METADATA_CRITERIA,
    Criterion,
    Label,
    compute_domain_bins,
    compute_domain_labels,
)
from multitap.persona import (
    HashingEncoder,
    JsonCache,
    PersonaDB,
    TemplateGenerator,
    build_all_persona_dbs,
    build_domain_description,
    encode_item_batch,
    encode_personas,
    generate_all_personas,
    item_semantic_text,
    parse_persona_response,
    persona_payload,
    recent_history,
    sample_description_items,
)
from multitap.persona.encoding import encode_texts
from multitap.persona.prompts import PERSONA_SYSTEM_PROMPT
from multitap.util import content_key


def generate_personas(user_id, db, assets, history, client, cache):
    """`generate_all_personas` for a single user; `assets` is (domain id, description)."""
    return generate_all_personas({user_id: db}, *assets, {user_id: history}, client, cache,
                                 1)[user_id]


def persona_key(payload, identity="template-v1"):
    """The text cache key of a persona payload."""
    return content_key({"payload": payload, "client": identity,
                        "instruction": PERSONA_SYSTEM_PROMPT})


def label_from_code(code):
    """The label a persona database writes as `code` (H, M or L)."""
    return {label.code: label for label in Label}[code]


def make_domain(triples, item_meta=None):
    """triples: (user, item, category, ts)"""
    items = {}
    records = []
    for user, item, category, ts in triples:
        if item not in items:
            meta = (item_meta or {}).get(item, {})
            items[item] = ItemMeta(
                item,
                meta.get("title", f"t {item}"),
                category,
                meta.get("price", 10.0),
                meta.get("avg_rating", 4.0),
                meta.get("rating_count", 10),
            )
        records.append(InteractionRecord(user, item, 4.0, ts))
    return DomainDataset.from_records("home", records, items)


def behavioral_dbs(triples):
    """The persona databases of a domain whose PS/QP/PB label maps are empty,
    so only the behavioral labels (CF, CD) carry information."""
    return build_all_persona_dbs(make_domain(triples), {c: {} for c in METADATA_CRITERIA})


class TestBehavioralLabels:
    def test_diversity_distinct_count(self):
        dbs = behavioral_dbs(
            [("u", "i1", "A", 1), ("u", "i2", "A", 2), ("u", "i3", "B", 3)]
        )
        assert sorted(dbs["u"].labels[Criterion.CF]) == ["A", "B"]
        assert dbs["u"].diversity is Label.HIGH  # the sole user

    def test_diversity_degenerate_all_equal(self):
        dbs = behavioral_dbs(
            [("u1", "i1", "A", 1), ("u2", "i1", "A", 2), ("u3", "i1", "A", 3)]
        )
        for u in ("u1", "u2", "u3"):
            assert dbs[u].diversity is Label.HIGH

    def test_diversity_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        triples = []
        cats = ["A", "B", "C", "D", "E"]
        for k in range(400):
            u = f"u{rng.integers(0, 30)}"
            c = cats[rng.integers(0, 5)]
            triples.append((u, f"{c}-i{rng.integers(0, 6)}", c, k))
        dbs = behavioral_dbs(triples)
        xs = {u: len({t[2] for t in triples if t[0] == u}) for u in dbs}
        ordered = sorted(xs.values())
        import math

        q13 = ordered[max(1, math.ceil(len(ordered) / 3)) - 1]
        q23 = ordered[max(1, math.ceil(2 * len(ordered) / 3)) - 1]
        for u in sorted(dbs):
            x = xs[u]
            assert len(dbs[u].labels[Criterion.CF]) == x
            expected = (
                Label.LOW if x < q13 else Label.MEDIUM if x < q23 else Label.HIGH
            )
            assert dbs[u].diversity is expected

    def test_familiarity_nearest_rank(self):
        # user u{k} interacts k times with category c, k = 1..6
        dbs = behavioral_dbs(
            [(f"u{k}", f"i{n}", "c", n) for k in range(1, 7) for n in range(k)]
        )
        assert dbs["u3"].labels[Criterion.CF]["c"] is Label.MEDIUM
        assert dbs["u1"].labels[Criterion.CF]["c"] is Label.LOW
        assert dbs["u4"].labels[Criterion.CF]["c"] is Label.HIGH  # == q23

    def test_familiarity_sole_user(self):
        dbs = behavioral_dbs([("u", "i1", "c", 1), ("u", "i2", "c", 2)])
        assert dbs["u"].labels[Criterion.CF]["c"] is Label.HIGH

    def test_familiarity_absent_user_errors(self):
        dbs = behavioral_dbs(
            [("u", "i1", "c", 1), ("u", "i2", "c", 2), ("ghost", "i3", "d", 3)]
        )
        with pytest.raises(KeyError):
            dbs["ghost"].labels[Criterion.CF]["c"]


def domain_with_labels():
    triples = [
        ("u1", "i1", "catA", 1),
        ("u1", "i2", "catA", 2),
        ("u1", "i3", "catB", 3),
        ("u2", "i1", "catA", 4),
        ("u2", "i3", "catB", 5),
        ("u3", "i2", "catA", 6),
    ]
    meta = {
        "i1": {"price": 5.0, "avg_rating": 3.0, "rating_count": 5},
        "i2": {"price": 50.0, "avg_rating": 4.5, "rating_count": 100},
        "i3": {"price": 20.0, "avg_rating": 4.0, "rating_count": 30},
    }
    ds = make_domain(triples, meta)
    labels = compute_domain_labels(ds)
    return ds, labels


class TestPersonaDB:
    def test_json_shape(self):
        ds, labels = domain_with_labels()
        db = build_all_persona_dbs(ds, labels)["u1"]
        obj = db.to_json_dict()
        assert obj["User ID"] == "u1"
        assert set(obj) == {
            "User ID",
            "price_affiliated_group",
            "rating_score_preferred_group",
            "rating_nums_preferred_group",
            "cats_familiarity",
            "cats_interaction_diversity",
        }
        assert set(obj["price_affiliated_group"]) == {"catA", "catB"}
        assert all(v in "HML" for v in obj["price_affiliated_group"].values())
        assert obj["cats_interaction_diversity"] in "HML"

    def test_round_trip(self):
        from multitap.persona.database import _JSON_KEYS

        ds, labels = domain_with_labels()
        db = build_all_persona_dbs(ds, labels)["u1"]
        obj = json.loads(json.dumps(db.to_json_dict()))
        again = PersonaDB(
            user_id=obj["User ID"],
            labels={
                criterion: {cat: label_from_code(code) for cat, code in obj[key].items()}
                for criterion, key in _JSON_KEYS.items()
            },
            diversity=label_from_code(obj["cats_interaction_diversity"]),
        )
        assert again == db

    def test_user_without_interactions_errors(self):
        ds, labels = domain_with_labels()
        dbs = build_all_persona_dbs(ds, labels)
        assert sorted(dbs) == ["u1", "u2", "u3"]
        with pytest.raises(KeyError):
            dbs["ghost"]

    def test_missing_criterion_errors(self):
        ds, labels = domain_with_labels()
        del labels[Criterion.PB]
        with pytest.raises(MissingLabelError, match="pb"):
            build_all_persona_dbs(ds, labels)

    def test_coverage_invariant(self):
        ds, labels = domain_with_labels()
        dbs = build_all_persona_dbs(ds, labels)
        for user, db in dbs.items():
            for category in ds.user_category_items[user]:
                for criterion in (Criterion.PS, Criterion.QP, Criterion.PB, Criterion.CF):
                    assert category in db.labels[criterion], (user, category, criterion)


@st.composite
def persona_domains(draw):
    """A small domain plus PS/QP/PB label maps, some possibly dropped.

    Counts are drawn from a narrow range so tertiles tie; a user may touch
    a single category; catalog category Z is never touched; label maps may
    name categories and users the builder must ignore."""
    users = [f"u{k}" for k in range(draw(st.integers(1, 6)))]
    touched = ["A", "B", "C"]
    triples = draw(
        st.lists(
            st.tuples(st.sampled_from(users), st.sampled_from(touched), st.integers(0, 2)),
            min_size=1,
            max_size=25,
        )
    )
    items = {
        f"{c}{k}": ItemMeta(f"{c}{k}", "t", c, 10.0, 4.0, 10)
        for c in [*touched, "Z"]
        for k in range(3)
    }
    records = [InteractionRecord(u, f"{c}{k}", 4.0, t) for t, (u, c, k) in enumerate(triples)]
    ds = DomainDataset.from_records("home", records, items)
    label_map = st.dictionaries(
        st.sampled_from([*touched, "Z"]),
        st.dictionaries(st.sampled_from([*users, "ghost"]), st.sampled_from(list(Label))),
    )
    kept = draw(st.sets(st.sampled_from(METADATA_CRITERIA), min_size=2))
    return ds, {c: draw(label_map) for c in METADATA_CRITERIA if c in kept}


class TestBatchedBuilder:
    @settings(max_examples=150, deadline=None)
    @given(persona_domains())
    def test_matches_one_user_oracle(self, case):
        ds, labels = case
        if len(labels) < len(METADATA_CRITERIA):
            with pytest.raises(MissingLabelError) as batched:
                build_all_persona_dbs(ds, labels)
            with pytest.raises(MissingLabelError) as one_user:
                oracles.build_persona_db(sorted(ds.users)[0], ds, labels)
            assert str(batched.value) == str(one_user.value)
            return
        dbs = build_all_persona_dbs(ds, labels)
        assert list(dbs) == sorted(ds.users)
        for user in dbs:
            expected = oracles.build_persona_db(user, ds, labels)
            assert dbs[user] == expected
            assert json.dumps(dbs[user].to_json_dict()) == json.dumps(expected.to_json_dict())


class TestDomainDescription:
    def _bulk_domain(self, n_items):
        triples = []
        meta = {}
        for k in range(n_items):
            item = f"i{k:03d}"
            meta[item] = {"price": 5.0 + k, "avg_rating": 3.0 + (k % 20) / 10, "rating_count": k}
            triples.append((f"u{k % 17}", item, f"cat{k % 4}", k))
        return make_domain(triples, meta)

    def test_caps_at_100_config_texts(self):
        ds = self._bulk_domain(150)
        assert len(sample_description_items(ds)) == 100

    def test_small_catalog_uses_all_items(self):
        ds = self._bulk_domain(40)
        assert len(sample_description_items(ds)) == 40

    def test_persona_temperature_alone_keeps_the_cached_description(self, monkeypatch, tmp_path):
        from multitap.persona import clients

        monkeypatch.setenv("MULTITAP_API_KEY", "k")

        class TemplateSession:
            """Answers each chat post with the template generator's description."""

            def __init__(self):
                self.posts = 0

            def post(self, url, **kwargs):
                self.posts += 1
                payload = json.loads(kwargs["json"]["messages"][1]["content"])
                content = TemplateGenerator().domain_description(payload)
                return TestRemoteRetries._Response(200, {"choices": [{"message": {"content": content}}]})

        ds = self._bulk_domain(60)
        cache, session = JsonCache(tmp_path), TemplateSession()
        descriptions = []
        for settings in ({"persona_temperature": 0.7}, {"persona_temperature": 0.2},
                         {"persona_temperature": 0.2, "description_temperature": 0.5}):
            generator = clients.RemoteGenerator(
                clients.ClientSettings(mode="remote", **settings), session=session)
            descriptions.append(build_domain_description(ds, generator, cache))
        assert session.posts == 2
        assert descriptions[0] == descriptions[1] == descriptions[2]

    def test_fallback_description_deterministic(self, tmp_path):
        ds = self._bulk_domain(60)
        one = build_domain_description(ds, TemplateGenerator(), JsonCache(tmp_path / "one"))
        two = build_domain_description(ds, TemplateGenerator(), JsonCache(tmp_path / "two"))
        assert one == two
        assert "home" in one

    def test_malformed_description_is_asked_once_more(self, tmp_path):
        class MalformedFirst(TemplateGenerator):
            def domain_description(self, payload):
                valid = super().domain_description(payload)
                return "not json" if self.calls == 1 else valid

        ds = self._bulk_domain(60)
        generator = MalformedFirst()
        description = build_domain_description(ds, generator, JsonCache(tmp_path))
        assert generator.calls == 2
        assert description == build_domain_description(ds, TemplateGenerator(),
                                                       JsonCache(tmp_path / "fresh"))
        # the valid answer is the one cached
        assert build_domain_description(ds, generator, JsonCache(tmp_path)) == description
        assert generator.calls == 2

    def test_two_malformed_descriptions_fail(self, tmp_path):
        class Malformed(TemplateGenerator):
            def domain_description(self, payload):
                super().domain_description(payload)
                return json.dumps({"Domain": "home", "Domain Profile": {}})

        generator = Malformed()
        with pytest.raises(MalformedResponseError, match="domain description response for 'home'"):
            build_domain_description(self._bulk_domain(60), generator, JsonCache(tmp_path))
        assert generator.calls == 2


class TestGeneratePersonas:
    def _setup(self):
        ds, labels = domain_with_labels()
        db = build_all_persona_dbs(ds, labels)["u1"]
        assets = ("home", "desc")
        history = recent_history(ds, "u1", {})
        return ds, db, assets, history

    def test_template_phrase_for_high_price(self, tmp_path):
        _, db, assets, history = self._setup()
        db.labels[Criterion.PS]["Women"] = Label.HIGH
        text = generate_personas("u1", db, assets, history, TemplateGenerator(), JsonCache(tmp_path))
        assert "prefers higher-priced items in Women" in text[Criterion.PS]

    def test_all_five_texts_present(self, tmp_path):
        _, db, assets, history = self._setup()
        text = generate_personas("u1", db, assets, history, TemplateGenerator(), JsonCache(tmp_path))
        assert set(text) == set(CRITERIA_ORDER)
        assert all(t for t in text.values())

    def test_missing_profile_key_errors(self):
        raw = json.dumps(
            {
                "User ID": "u",
                "Profiles": {
                    "price_centric": {"persona": "x"},
                    "quality_centric": {"persona": "x"},
                    "popularity_centric": {"persona": "x"},
                    "category_familiarity": {"persona": "x"},
                },
            }
        )
        with pytest.raises(MalformedResponseError, match="category_diversity"):
            parse_persona_response(raw, "u")

    def test_accepts_category_preference_alias(self):
        raw = json.dumps(
            {
                "User ID": "u",
                "Profiles": {
                    "price_centric": {"persona": "a"},
                    "quality_centric": {"persona": "b"},
                    "popularity_centric": {"persona": "c"},
                    "category_preference": {"persona": "d"},
                    "category_diversity": {"persona": "e"},
                },
            }
        )
        texts = parse_persona_response(raw, "u")
        assert texts[Criterion.CF] == "d"

    def test_cache_hit_makes_zero_calls(self, tmp_path):
        _, db, assets, history = self._setup()
        cache = JsonCache(tmp_path)
        client = TemplateGenerator()
        first = generate_personas("u1", db, assets, history, client, cache)
        calls_after_first = client.calls
        second = generate_personas("u1", db, assets, history, client, cache)
        assert client.calls == calls_after_first
        assert second == first

    def test_texts_sampled_at_another_temperature_are_not_served(self, monkeypatch, tmp_path):
        from multitap.persona import clients

        monkeypatch.setenv("MULTITAP_API_KEY", "k")

        class TemplateSession:
            """Answers each chat post with the template generator's response."""

            def __init__(self):
                self.posts = 0

            def post(self, url, **kwargs):
                self.posts += 1
                payload = json.loads(kwargs["json"]["messages"][1]["content"])
                content = TemplateGenerator().personas(payload)
                return TestRemoteRetries._Response(200, {"choices": [{"message": {"content": content}}]})

        _, db, assets, history = self._setup()
        cache, session = JsonCache(tmp_path), TemplateSession()
        for temperature, posts in ((0.7, 1), (0.7, 1), (0.2, 2)):
            settings = clients.ClientSettings(mode="remote", persona_temperature=temperature)
            generator = clients.RemoteGenerator(settings, session=session)
            generate_personas("u1", db, assets, history, generator, cache)
            assert session.posts == posts

    def test_cached_equals_fresh(self, tmp_path):
        _, db, assets, history = self._setup()
        cache = JsonCache(tmp_path / "cache")
        generate_personas("u1", db, assets, history, TemplateGenerator(), cache)
        cached = generate_personas("u1", db, assets, history, TemplateGenerator(), cache)
        fresh = generate_personas("u1", db, assets, history, TemplateGenerator(),
                                  JsonCache(tmp_path / "fresh"))
        assert cached == fresh

    def test_one_reparse_attempt_then_error(self, tmp_path):
        class FlakyClient:
            identity = "flaky"

            def __init__(self):
                self.calls = 0

            def personas(self, payload):
                self.calls += 1
                return "not json"

            def domain_description(self, payload):
                return "{}"

        _, db, assets, history = self._setup()
        client = FlakyClient()
        with pytest.raises(MalformedResponseError):
            generate_personas("u1", db, assets, history, client, JsonCache(tmp_path))
        assert client.calls == 2

    def test_payload_structure(self):
        ds, db, assets, history = self._setup()
        payload = persona_payload(
            "u1", "home", "desc", db.labels, db.diversity, history
        )
        # in order: a remote request sends the payload as unsorted JSON
        assert list(payload) == [
            "Domain",
            "Domain description",
            "User ID",
            "category_price_level",
            "category_rating_level",
            "category_popularity_level",
            "category_familiarity_level",
            "overall_category_diversity",
            "History",
        ]
        entry = payload["History"][0]
        assert set(entry) == {
            "item_id",
            "title",
            "category",
            "average_rating",
            "rating_number",
            "user_rating",
            "cat_item_price_tag",
        }

    def test_history_truncated_to_30(self):
        triples = [("u", f"i{k}", "A", k) for k in range(45)]
        ds = make_domain(triples)
        rows = recent_history(ds, "u", {})
        assert len(rows) == 30
        # newest first
        assert rows[0][0].timestamp == 44

    def test_history_price_tags_from_bin_maps(self):
        ds, _ = domain_with_labels()
        rows = recent_history(ds, "u1", {"catA": {"i1": 1, "i2": 3}})
        assert [(rec.item_id, tag) for rec, _, tag in rows] == [
            ("i3", None),  # catB has no bin map
            ("i2", "H"),
            ("i1", "L"),
        ]


class TestEncoders:
    def test_identical_text_identical_vector(self):
        enc = HashingEncoder(dim=64, seed=3)
        a = enc.embed(["hello pricing world"])[0]
        b = enc.embed(["hello pricing world"])[0]
        np.testing.assert_array_equal(a, b)

    def test_unit_norm(self):
        enc = HashingEncoder(dim=128, seed=0)
        for text in ["a", "some longer text with more words", ""]:
            v = enc.embed([text])[0]
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-9)

    def test_encode_personas_shape(self, tmp_path):
        ds, labels = domain_with_labels()
        dbs = build_all_persona_dbs(ds, labels)
        assets = ("home", "desc")
        cache = JsonCache(tmp_path)
        texts = [generate_personas(u, dbs[u], assets, [], TemplateGenerator(), cache)
                 for u in ("u2", "u1")]
        out = encode_personas(texts, HashingEncoder(dim=32, seed=1), 256, cache)
        assert out.shape == (2, 5, 32)
        # one (5, d) stack per text, in input order, rows in criterion order
        for text, stack in zip(texts, out):
            expected = HashingEncoder(dim=32, seed=1).embed([text[c] for c in CRITERIA_ORDER])
            assert stack.tobytes() == expected.tobytes()

    def test_item_semantics_ignore_title(self, tmp_path):
        ds, _ = domain_with_labels()
        enc = HashingEncoder(dim=32, seed=2)
        same_cat = ItemMeta("other", "completely different title", "catA", 9.9, 2.0, 1)
        out = encode_item_batch([ds.items["i1"], same_cat], "desc", enc, 256, JsonCache(tmp_path))
        assert out.shape == (2, 32)
        np.testing.assert_array_equal(out[0], out[1])

    def test_batch_call_count_matches_chunks(self, tmp_path):
        items = [ItemMeta(f"i{k}", "t", f"c{k}", 1.0, 4.0, 1) for k in range(1000)]
        enc = HashingEncoder(dim=16, seed=4)
        out = encode_item_batch(items, "desc", enc, 100, JsonCache(tmp_path))
        assert out.shape == (1000, 16)
        assert enc.calls == 10

    def test_embedding_cache_roundtrip(self, tmp_path):
        cache = JsonCache(tmp_path)
        items = [ItemMeta(f"i{k}", "t", "c", 1.0, 4.0, 1) for k in range(5)]
        enc = HashingEncoder(dim=16, seed=4)
        first = encode_item_batch(items, "desc", enc, 256, cache)
        calls = enc.calls
        second = encode_item_batch(items, "desc", enc, 256, cache)
        assert enc.calls == calls
        assert second.tobytes() == first.tobytes()

    ENCODER_TEXTS = [
        "This user prefers higher priced items in Kitchen, and budget priced items in Garden.",
        "budget priced budget priced budget priced",
        "",
        "?! -- ...",
        "a a a a b a",
        "This user prefers higher priced items in Kitchen, and budget priced items in Garden.",
    ]

    @pytest.mark.parametrize("dim", [3, 7, 256])
    def test_embed_matches_unmemoised_oracle(self, dim):
        enc = HashingEncoder(dim=dim, seed=5)
        expected = oracles.hashing_embed(self.ENCODER_TEXTS, dim, 5)
        assert enc.embed(self.ENCODER_TEXTS).tobytes() == expected.tobytes()
        # a second call reads every feature from the memo
        again = enc.embed(self.ENCODER_TEXTS[::-1])
        assert again.tobytes() == expected[::-1].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(alphabet="ab c1.", max_size=24), max_size=5),
           st.sampled_from([3, 7, 256]), st.integers(0, 9))
    def test_embed_matches_oracle_on_random_texts(self, texts, dim, seed):
        expected = oracles.hashing_embed(texts, dim, seed)
        assert HashingEncoder(dim=dim, seed=seed).embed(texts).tobytes() == expected.tobytes()


class _RecordingEncoder(HashingEncoder):
    """A hashing encoder that records the texts of every `embed` call."""

    def __init__(self, dim, seed):
        super().__init__(dim, seed)
        self.batches = []

    def embed(self, texts):
        self.batches.append(list(texts))
        return super().embed(texts)


def _persona_text(texts):
    return {c.value: t for c, t in zip(CRITERIA_ORDER, texts)}


# a small pool, so that users and items share texts often
TEXT_POOL = ["budget priced", "higher priced items", "", "a a b", "prefers Kitchen", "?!"]


class TestOneEncoderPath:
    @settings(max_examples=40, deadline=None)
    @given(
        users=st.lists(st.lists(st.sampled_from(TEXT_POOL), min_size=5, max_size=5),
                       min_size=1, max_size=6),
        warm=st.lists(st.booleans(), min_size=6, max_size=6),
        categories=st.lists(st.sampled_from(TEXT_POOL), min_size=1, max_size=8),
        chunk_size=st.sampled_from([1, 2, 256]),
    )
    def test_same_bytes_as_the_oracles_and_each_text_sent_once(
        self, tmp_path_factory, users, warm, categories, chunk_size
    ):
        texts = [_persona_text(ts) for ts in users]
        items = [ItemMeta(f"i{k}", "t", c, 1.0, 4.0, 1) for k, c in enumerate(categories)]
        item_texts = [item_semantic_text(m, "desc") for m in items]
        flat = [t for ts in users for t in ts]
        cache = JsonCache(tmp_path_factory.mktemp("vectors"))
        # part of the texts cached beforehand: the users flagged warm
        cached = [t for ts, w in zip(users, warm) for t in ts if w]
        encode_texts(cached, HashingEncoder(dim=8, seed=3), 256, cache)

        encoder = _RecordingEncoder(dim=8, seed=3)
        got = encode_personas(texts, encoder, chunk_size, cache)
        assert got.tobytes() == oracles.encode_personas(texts, HashingEncoder(8, 3)).tobytes()
        sent = [t for batch in encoder.batches for t in batch]
        todo = [t for t in dict.fromkeys(flat) if t not in cached]
        assert sent == todo
        assert len(encoder.batches) == -(-len(todo) // chunk_size)

        encoder = _RecordingEncoder(dim=8, seed=3)
        got = encode_item_batch(items, "desc", encoder, chunk_size, cache)
        want = oracles.encode_item_batch(items, "desc", HashingEncoder(8, 3), chunk_size)
        assert got.tobytes() == want.tobytes()
        todo = [t for t in dict.fromkeys(item_texts) if t not in flat]
        assert [t for batch in encoder.batches for t in batch] == todo
        assert len(encoder.batches) == -(-len(todo) // chunk_size)

        mixed = flat + item_texts
        got = encode_texts(mixed, HashingEncoder(8, 3), chunk_size, cache)
        assert got.tobytes() == oracles.hashing_embed(mixed, 8, 3).tobytes()

    def test_no_texts_make_no_call(self, tmp_path):
        encoder, cache = HashingEncoder(8, 3), JsonCache(tmp_path)
        assert encode_texts([], encoder, 256, cache).shape == (0, 8)
        assert encode_personas([], encoder, 256, cache).shape == (0, 5, 8)
        assert encoder.calls == 0

    def test_wrong_shape_from_the_encoder_is_rejected(self, tmp_path):
        class ShortEncoder(HashingEncoder):
            def embed(self, texts):
                return super().embed(texts)[:-1]

        with pytest.raises(ValueError, match=r"shape \(1, 8\), expected \(2, 8\)"):
            encode_texts(["a", "b"], ShortEncoder(8, 3), 256, JsonCache(tmp_path))

    def test_remote_encoder_receives_only_distinct_uncached_texts(self, monkeypatch, tmp_path):
        from multitap.persona import clients

        monkeypatch.setenv("MULTITAP_API_KEY", "k")

        class EmbeddingSession:
            def __init__(self):
                self.inputs = []

            def post(self, url, json, headers, timeout):
                self.inputs.append(json["input"])
                rows = [{"index": k, "embedding": [float(len(t))] * json["dimensions"]}
                        for k, t in enumerate(json["input"])]
                return TestRemoteRetries._Response(200, {"data": rows})

        session = EmbeddingSession()
        encoder = clients.RemoteEncoder(clients.ClientSettings(), dim=3, session=session)
        cache = JsonCache(tmp_path)
        encode_texts(["b", "cc"], encoder, 256, cache)
        got = encode_texts(["a", "b", "a", "dddd", "cc", "dddd", "eeeee"], encoder, 2, cache)
        assert session.inputs == [["b", "cc"], ["a", "dddd"], ["eeeee"]]
        np.testing.assert_array_equal(got[:, 0], [1, 1, 1, 4, 2, 4, 5])


class TestRemoteRetries:
    def test_three_attempts_then_client_error(self, monkeypatch):
        from multitap.persona import clients
        from multitap.persona.clients import ClientSettings, RemoteGenerator

        monkeypatch.setenv("MULTITAP_API_KEY", "k")
        monkeypatch.setattr(clients.time, "sleep", lambda seconds: None)

        class FailingSession:
            def __init__(self):
                self.calls = 0

            def post(self, *args, **kwargs):
                self.calls += 1
                raise OSError("connection refused")

        session = FailingSession()
        client = RemoteGenerator(ClientSettings(), session=session)
        with pytest.raises(ClientError, match="after 3 attempts"):
            client.personas({"User ID": "u"})
        assert session.calls == 3

    class _Response:
        def __init__(self, status, payload=None):
            self.status_code = status
            self.text = f"status {status}"
            self._payload = payload

        def json(self):
            return self._payload

    class _ScriptedSession:
        """Answers each post with the next scripted response or exception."""

        def __init__(self, script):
            self.script = list(script)
            self.calls = 0

        def post(self, *args, **kwargs):
            self.calls += 1
            outcome = self.script.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

    def _client(self, monkeypatch, script):
        from multitap.persona import clients

        monkeypatch.setenv("MULTITAP_API_KEY", "k")
        sleeps = []
        monkeypatch.setattr(clients.time, "sleep", sleeps.append)
        session = self._ScriptedSession(script)
        client = clients.RemoteGenerator(clients.ClientSettings(), session=session)
        return client, session, sleeps

    def _ok(self):
        return self._Response(200, {"choices": [{"message": {"content": "done"}}]})

    @pytest.mark.parametrize("first", [429, 500, 503, OSError("connection reset")])
    def test_retryable_failure_then_success(self, monkeypatch, first):
        failure = first if isinstance(first, Exception) else self._Response(first)
        client, session, sleeps = self._client(monkeypatch, [failure, self._ok()])
        assert client.personas({"User ID": "u"}) == "done"
        assert session.calls == 2
        assert sleeps == [1.0]

    @pytest.mark.parametrize("status", [400, 401, 404, 422])
    def test_other_4xx_fails_at_once(self, monkeypatch, status):
        client, session, sleeps = self._client(monkeypatch, [self._Response(status), self._ok()])
        with pytest.raises(ClientError, match=f"rejected \\({status}\\)"):
            client.personas({"User ID": "u"})
        assert session.calls == 1
        assert sleeps == []

    def test_no_sleep_after_last_attempt(self, monkeypatch):
        client, session, sleeps = self._client(monkeypatch, [self._Response(429)] * 3)
        with pytest.raises(ClientError, match="after 3 attempts: status 429"):
            client.personas({"User ID": "u"})
        assert session.calls == 3
        assert sleeps == [1.0, 2.0]

    @pytest.mark.parametrize("name", ["MissingSchema", "InvalidURL", "InvalidSchema", "InvalidHeader"])
    def test_request_that_cannot_be_sent_fails_at_once(self, monkeypatch, name):
        exceptions = pytest.importorskip("requests.exceptions")
        error = getattr(exceptions, name)("bad request")
        client, session, sleeps = self._client(monkeypatch, [error, self._ok()])
        with pytest.raises(ClientError, match="api.openai.com/v1/chat/completions cannot be sent"):
            client.personas({"User ID": "u"})
        assert session.calls == 1
        assert sleeps == []

    def test_missing_api_key(self, monkeypatch):
        from multitap.persona.clients import ClientSettings, RemoteGenerator

        monkeypatch.delenv("MULTITAP_API_KEY", raising=False)

        class NeverCalled:
            def post(self, *a, **k):
                raise AssertionError("should not reach the network")

        client = RemoteGenerator(ClientSettings(), session=NeverCalled())
        with pytest.raises(ClientError, match="MULTITAP_API_KEY"):
            client.personas({"User ID": "u"})


class TestParallelGeneration:
    def test_parallel_equals_serial(self, tmp_path):
        ds, labels = domain_with_labels()
        dbs = build_all_persona_dbs(ds, labels)
        assets = ("home", "desc")
        histories = {u: recent_history(ds, u, {}) for u in dbs}
        serial = generate_all_personas(dbs, *assets, histories, TemplateGenerator(),
                                       JsonCache(tmp_path / "serial"), 1)
        parallel = generate_all_personas(dbs, *assets, histories, TemplateGenerator(),
                                         JsonCache(tmp_path / "parallel"), 3)
        assert serial == parallel


class TestShardCache:
    def _inputs(self):
        ds, labels = domain_with_labels()
        dbs = build_all_persona_dbs(ds, labels)
        assets = ("home", "desc")
        histories = {u: recent_history(ds, u, {}) for u in dbs}
        return dbs, assets, histories, [ds.items[i] for i in sorted(ds.items)]

    def _stage(self, root, generator, encoder, parallelism=1):
        """What the persona stage does for one domain, on caches under `root`."""
        dbs, assets, histories, items = self._inputs()
        texts = generate_all_personas(
            dbs, *assets, histories, generator, JsonCache(root / "texts"), parallelism
        )
        vectors = JsonCache(root / "vectors")
        personas = encode_personas([texts[u] for u in sorted(texts)], encoder, 256, vectors)
        item_vecs = encode_item_batch(items, "desc", encoder, 2, vectors)
        return (
            texts,
            personas.tobytes(),
            item_vecs.tobytes(),
        )

    def _files(self, root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    def test_fresh_cache_is_bit_exact_with_zero_calls(self, tmp_path):
        cold = self._stage(tmp_path, TemplateGenerator(), HashingEncoder(dim=16, seed=5))
        generator, encoder = TemplateGenerator(), HashingEncoder(dim=16, seed=5)
        warm = self._stage(tmp_path, generator, encoder)
        assert (generator.calls, encoder.calls) == (0, 0)
        assert warm == cold
        assert warm == self._stage(tmp_path / "other", TemplateGenerator(), HashingEncoder(dim=16, seed=5))

    def test_one_shard_per_batch_and_none_on_warm_rerun(self, tmp_path):
        self._stage(tmp_path, TemplateGenerator(), HashingEncoder(dim=16, seed=5), parallelism=3)
        files = self._files(tmp_path)
        assert sorted(p.parent.name for p in files) == ["texts", "vectors", "vectors"]
        assert all(p.suffix == ".pack" for p in files)
        self._stage(tmp_path, TemplateGenerator(), HashingEncoder(dim=16, seed=5), parallelism=3)
        assert self._files(tmp_path) == files

    def test_stray_and_old_layout_files_ignored(self, tmp_path):
        dbs, assets, histories, _ = self._inputs()
        key = persona_key(persona_payload("u1", *assets, dbs["u1"].labels, dbs["u1"].diversity,
                                          histories["u1"]))
        texts_dir = tmp_path / "texts"
        texts_dir.mkdir()
        # a per-key file and a shard of the two older layouts, and a temp
        # file an interrupted write left
        (texts_dir / f"{key}.json").write_text(json.dumps({"user_id": "u1", "texts": {}, "provenance": "x"}))
        (texts_dir / "0123.shard").write_bytes(b"MTAPSHRD\x02\x00\x00\x00{}")
        (texts_dir / "0123.pack.tmpab12").write_bytes(b"partial")
        assert JsonCache(texts_dir).get([key]) is None
        generator = TemplateGenerator()
        cold = self._stage(tmp_path, generator, HashingEncoder(dim=16, seed=5))
        assert generator.calls == len(dbs)
        assert cold == self._stage(tmp_path / "clean", TemplateGenerator(), HashingEncoder(dim=16, seed=5))

    def test_entries_in_the_older_form_are_served_without_calls(self, tmp_path):
        """Persona entries once also held the user id and the client's
        provenance; a cache holding them serves its texts as they are."""
        dbs, assets, histories, _ = self._inputs()
        texts = generate_all_personas(dbs, *assets, histories, TemplateGenerator(),
                                      JsonCache(tmp_path / "fresh"), 1)
        older = {
            persona_key(persona_payload(u, *assets, dbs[u].labels, dbs[u].diversity, histories[u])):
            {"user_id": u, "texts": texts[u], "provenance": "template"}
            for u in dbs
        }
        JsonCache(tmp_path / "older").put(older)
        generator = TemplateGenerator()
        served = generate_all_personas(dbs, *assets, histories, generator,
                                       JsonCache(tmp_path / "older"), 1)
        assert served == texts
        assert generator.calls == 0
        assert len(list((tmp_path / "older").iterdir())) == 1

    def test_cached_entry_without_a_criterion_fails_to_encode(self, tmp_path):
        dbs, assets, histories, _ = self._inputs()
        key = persona_key(persona_payload("u1", *assets, dbs["u1"].labels, dbs["u1"].diversity,
                                          histories["u1"]))
        JsonCache(tmp_path).put({key: {"texts": {"ps": "a", "qp": "b", "pb": "c", "cf": "d"}}})
        texts = generate_all_personas(dbs, *assets, histories, TemplateGenerator(),
                                      JsonCache(tmp_path), 1)
        with pytest.raises(ValueError, match=r"persona texts missing criteria: \['cd'\]"):
            encode_personas([texts[u] for u in sorted(texts)], HashingEncoder(dim=16, seed=5), 256,
                            JsonCache(tmp_path / "vectors"))

    def test_put_copies_no_vector_and_names_the_shard_by_its_bytes(self, tmp_path):
        big = np.arange(1 << 20, dtype=np.float64).reshape(1024, 1024)  # 8 MiB
        tracemalloc.start()
        try:
            JsonCache(tmp_path).put({"v": big, "t": "text"})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes, f"put allocated {peak} bytes for {big.nbytes}"
        (shard,) = tmp_path.iterdir()
        assert shard.name == hashlib.sha256(shard.read_bytes()).hexdigest() + ".pack"

    def test_vectors_and_json_round_trip_bit_exactly(self, tmp_path):
        cache = JsonCache(tmp_path)
        vec = np.array([[-0.0, np.nan, 5e-324], [np.inf, 1.0 / 3.0, -2.5]])
        cache.put({"v": vec, "t": {"texts": ["\u00e9t\u00e9"], "n": 1}})
        got = JsonCache(tmp_path).get(["v", "t", "absent"])
        assert set(got) == {"v", "t"}
        assert got["v"].dtype == np.float64 and got["v"].tobytes() == vec.tobytes()
        assert got["t"] == {"texts": ["\u00e9t\u00e9"], "n": 1}

    @pytest.mark.parametrize("damage", [
        lambda data: b"NOTACKPT" + data[8:],
        lambda data: data[:12],
        lambda data: data[:20],
        lambda data: data[:-8],
    ], ids=["magic", "prefix", "header", "arrays"])
    def test_damaged_shard_is_recomputed_with_a_warning(self, tmp_path, caplog, damage):
        cold = self._stage(tmp_path, TemplateGenerator(), HashingEncoder(dim=16, seed=5))
        files = self._files(tmp_path)
        for shard in sorted((tmp_path / "vectors").glob("*.pack")):
            shard.write_bytes(damage(shard.read_bytes()))
            encoder = HashingEncoder(dim=16, seed=5)
            with caplog.at_level(logging.WARNING, logger="multitap.persona.cache"):
                assert self._stage(tmp_path, TemplateGenerator(), encoder) == cold
            assert encoder.calls > 0
            assert str(shard) in caplog.text
            # the batch that wrote the shard writes the same bytes to its name again
            assert self._files(tmp_path) == files

    def test_failed_batch_keeps_finished_entries(self, tmp_path):
        dbs, assets, histories, _ = self._inputs()

        class FailsOnThirdUser(TemplateGenerator):
            def personas(self, payload):
                if payload["User ID"] == sorted(dbs)[2]:
                    raise ClientError("down")
                return super().personas(payload)

        cache = JsonCache(tmp_path)
        with pytest.raises(ClientError):
            generate_all_personas(dbs, *assets, histories, FailsOnThirdUser(), cache, 1)
        generator = TemplateGenerator()
        generate_all_personas(dbs, *assets, histories, generator, cache, 1)
        assert generator.calls == len(dbs) - 2
