"""Ingestion, overlap and time-split tests, and the synthetic corpus bytes."""

import hashlib
import json
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from multitap.corpus import (
    DomainDataset,
    InteractionRecord,
    ItemMeta,
    SplitBundle,
    build_domain_pair,
    load_domain,
    time_split,
)
from multitap.errors import (
    DegenerateSplitError,
    DuplicateInteractionError,
    EmptyOverlapError,
    ParseError,
    UnknownItemError,
)
from multitap.pipeline import _rows_to_records

TS_2018 = 1514764800
TS_2019 = 1546300800
TS_2020 = 1577836800
TS_2021 = 1609459200


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")


def meta_row(item, category="cat", price=10.0):
    return {
        "item": item,
        "title": f"title {item}",
        "category": category,
        "price": price,
        "avg_rating": 4.0,
        "rating_count": 3,
    }


def make_dataset(domain_id, triples):
    """triples: (user, item, ts) or (user, item, ts, category)"""
    items = {}
    records = []
    for row in triples:
        user, item, ts = row[:3]
        category = row[3] if len(row) > 3 else "cat"
        items.setdefault(
            item, ItemMeta(item, f"t {item}", category, 5.0, 4.0, 2)
        )
        records.append(InteractionRecord(user, item, 5.0, ts))
    return DomainDataset.from_records(domain_id, records, items)


class TestLoadDomain:
    def test_single_line(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1")])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [{"user": "u1", "item": "i1", "rating": 5.0, "ts": 1546300800}],
        )
        ds = load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")
        assert ds.interactions == (InteractionRecord("u1", "i1", 5.0, 1546300800),)
        assert ds.users == {"u1"}

    def test_rating_out_of_range_names_line(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1")])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [
                {"user": "u1", "item": "i1", "rating": 5.0, "ts": 10},
                {"user": "u2", "item": "i1", "rating": 7.0, "ts": 11},
            ],
        )
        with pytest.raises(ParseError, match=r":2: rating 7\.0"):
            load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")

    def test_unknown_item(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1")])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [{"user": "u1", "item": "ghost", "rating": 3.0, "ts": 10}],
        )
        with pytest.raises(UnknownItemError, match="ghost"):
            load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")

    def test_duplicate_triple(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1")])
        row = {"user": "u1", "item": "i1", "rating": 3.0, "ts": 10}
        write_jsonl(tmp_path / "inter.jsonl", [row, row])
        with pytest.raises(DuplicateInteractionError):
            load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")

    def test_same_pair_distinct_timestamps_kept(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1")])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [
                {"user": "u1", "item": "i1", "rating": 3.0, "ts": 10},
                {"user": "u1", "item": "i1", "rating": 3.0, "ts": 11},
            ],
        )
        ds = load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")
        assert len(ds.interactions) == 2

    def test_missing_price_allowed(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1", price=None)])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [{"user": "u1", "item": "i1", "rating": 3.0, "ts": 10}],
        )
        ds = load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")
        assert ds.items["i1"].price is None

    def test_invalid_json_names_line(self, tmp_path):
        (tmp_path / "meta.jsonl").write_text('{"item": "i1", broken\n')
        write_jsonl(tmp_path / "inter.jsonl", [])
        with pytest.raises(ParseError, match=":1:"):
            load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")


class TestCompactRecords:
    """A record holds no `__dict__`, and one load keeps one string object per
    distinct id, so a corpus costs memory per interaction, not per id read."""

    def test_records_have_no_instance_dict(self):
        for record in (InteractionRecord("u", "i", 5.0, 1), ItemMeta("i", "t", "c", None, 4.0, 2)):
            assert not hasattr(record, "__dict__")

    def test_one_load_keeps_one_string_per_id(self, tmp_path):
        write_jsonl(tmp_path / "meta.jsonl", [meta_row("i1"), meta_row("i2")])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [
                {"user": "u1", "item": "i1", "rating": 3.0, "ts": 10},
                {"user": "u2", "item": "i1", "rating": 4.0, "ts": 11},
                {"user": "u1", "item": "i2", "rating": 5.0, "ts": 12},
            ],
        )
        ds = load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")
        first, second, third = ds.interactions
        assert first.user_id is third.user_id
        assert first.item_id is second.item_id
        assert first.item_id is next(key for key in ds.items if key == "i1")

    def test_split_rows_keep_one_string_per_id(self):
        # decoded, as a split file is read: every id is its own string object
        rows = json.loads(json.dumps([["u1", "i1", 5.0, 1], ["u1", "i2", 4.0, 2],
                                      ["u2", "i1", 3.0, 3]]))
        first, second, third = _rows_to_records(rows)
        assert first.user_id is second.user_id
        assert first.item_id is third.item_id
        assert [r.item_id for r in (first, second, third)] == ["i1", "i2", "i1"]

    def test_from_records_rejects_an_unknown_item(self):
        items = {"i1": ItemMeta("i1", "t", "cat", 5.0, 4.0, 2)}
        with pytest.raises(UnknownItemError, match="unknown item 'ghost'"):
            DomainDataset.from_records("d", [InteractionRecord("u", "ghost", 5.0, 1)], items)


class TestLoaderRejectsBadNumbers:
    """Each bad value is on line 2 and must be reported with its file and line."""

    def _load(self, tmp_path, meta_rows, inter_rows):
        write_jsonl(tmp_path / "meta.jsonl", meta_rows)
        write_jsonl(tmp_path / "inter.jsonl", inter_rows)
        return load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("price", float("nan")),
            ("price", float("inf")),
            ("avg_rating", float("nan")),
            ("avg_rating", float("-inf")),
            ("price", True),
            ("avg_rating", True),
            ("rating_count", True),
            ("rating_count", 2.5),
            ("price", "19.99"),
            ("avg_rating", "4"),
            ("rating_count", "3"),
            ("title", None),
            ("title", 5),
        ],
    )
    def test_metadata_field(self, tmp_path, field, value):
        bad = dict(meta_row("i2"), **{field: value})
        with pytest.raises(ParseError, match=rf"meta\.jsonl:2: {field} "):
            self._load(tmp_path, [meta_row("i1"), bad], [])

    @pytest.mark.parametrize("field,value", [("rating", True), ("ts", 1.9), ("ts", True),
                                             ("rating", "5"), ("ts", "3"),
                                             pytest.param("rating", 10**400, id="rating-huge-int")])
    def test_interaction_field(self, tmp_path, field, value):
        good = {"user": "u1", "item": "i1", "rating": 3.0, "ts": 10}
        bad = dict(good, **{field: value})
        with pytest.raises(ParseError, match=rf"inter\.jsonl:2: {field} "):
            self._load(tmp_path, [meta_row("i1")], [good, bad])

    @pytest.mark.parametrize("value", [None, "", {"a": 1}, 7])
    @pytest.mark.parametrize("name,field", [("meta", "item"), ("meta", "category"),
                                            ("inter", "user"), ("inter", "item")])
    def test_id_field(self, tmp_path, name, field, value):
        """An id must be a nonempty JSON string, never one made from another value."""
        meta = [meta_row("i1"), meta_row("i2")]
        inter = [{"user": f"u{k}", "item": f"i{k}", "rating": 3.0, "ts": 10} for k in (1, 2)]
        rows = meta if name == "meta" else inter
        rows[1] = dict(rows[1], **{field: value})
        with pytest.raises(ParseError, match=rf"{name}\.jsonl:2: {field} "):
            self._load(tmp_path, meta, inter)

    def test_nan_price_rejected_in_any_order(self, tmp_path):
        # unrejected, a NaN makes the price tertiles depend on input order:
        # [nan, 1, 3, 2] gives (1, 2) and [1, nan, 3, 2] gives (nan, 2)
        for prices in ([float("nan"), 1.0, 3.0, 2.0], [1.0, float("nan"), 3.0, 2.0]):
            line = prices.index(next(p for p in prices if p != p)) + 1
            rows = [meta_row(f"i{k}", price=p) for k, p in enumerate(prices)]
            with pytest.raises(ParseError, match=rf":{line}: price nan is not finite"):
                self._load(tmp_path, rows, [])


# NaN, the infinities, booleans and (for whole-number fields) every
# non-integral float
NOT_A_NUMBER = st.sampled_from([float("nan"), float("inf"), float("-inf"), True, False])
FRACTIONAL = st.floats(allow_nan=False, allow_infinity=False).filter(lambda x: not x.is_integer())
BAD_VALUES = {
    "ts": st.one_of(NOT_A_NUMBER, FRACTIONAL),
    "rating_count": st.one_of(NOT_A_NUMBER, FRACTIONAL),
    "rating": NOT_A_NUMBER,
    "price": NOT_A_NUMBER,
    "avg_rating": NOT_A_NUMBER,
}
INTERACTION_FIELDS = ("ts", "rating")


class TestLoaderProperties:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(sorted(BAD_VALUES)), rows=st.integers(1, 5), data=st.data())
    def test_bad_number_names_file_and_line(self, tmp_path, field, rows, data):
        """A bad value on the last row of a file, after any blank lines, is
        reported with that file and its physical line number."""
        meta = [meta_row(f"i{k}") for k in range(rows)]
        inter = [{"user": f"u{k}", "item": "i0", "rating": 3.0, "ts": k} for k in range(rows)]
        bad_name, bad_rows = ("inter.jsonl", inter) if field in INTERACTION_FIELDS else ("meta.jsonl", meta)
        bad_rows[-1] = dict(bad_rows[-1], **{field: data.draw(BAD_VALUES[field])})
        line_count = {}
        for name, file_rows in (("meta.jsonl", meta), ("inter.jsonl", inter)):
            lines = []
            for row in file_rows:
                lines += [""] * data.draw(st.integers(0, 2)) + [json.dumps(row)]
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            line_count[name] = len(lines)
        with pytest.raises(ParseError) as info:
            load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "demo")
        path, line = str(tmp_path / bad_name), line_count[bad_name]
        assert (info.value.path, info.value.line) == (path, line)
        assert re.match(rf"{re.escape(path)}:{line}: {field} ", str(info.value))


@st.composite
def split_cases(draw):
    """A small domain whose timestamps crowd around a boundary, plus a
    valid fraction; (user, item, ts) triples are unique."""
    triples = draw(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(-6, 6)),
        min_size=1, max_size=40, unique=True,
    ))
    ds = make_dataset("d", [(f"u{u}", f"i{i}", TS_2019 + t) for u, i, t in triples])
    fraction = draw(st.floats(0.01, 0.99))
    return ds, fraction


class TestTimeSplitProperties:
    @settings(max_examples=200, deadline=None)
    @given(split_cases())
    def test_split_invariants(self, case):
        ds, fraction = case
        before = tuple(r for r in ds.interactions if r.timestamp < TS_2019)
        assume(before)
        train_users = {r.user_id for r in before}
        post = [r for r in ds.interactions if r.timestamp >= TS_2019 and r.user_id in train_users]
        assume(post)
        bundle = time_split(ds, TS_2019, valid_fraction=fraction)
        # train is exactly the rows before the boundary, in input order
        assert bundle.train == before
        # valid and test hold exactly the post-boundary rows of train users
        assert Counter(bundle.valid + bundle.test) == Counter(post)
        # each user's valid rows precede their test rows in (timestamp, item) order
        key = lambda r: (r.timestamp, r.item_id)
        for user in train_users:
            valid = [key(r) for r in bundle.valid if r.user_id == user]
            test = [key(r) for r in bundle.test if r.user_id == user]
            assert valid == sorted(valid) and test == sorted(test)
            if valid and test:
                assert max(valid) < min(test)

    @settings(max_examples=100, deadline=None)
    @given(split_cases())
    def test_degenerate_split_raises(self, case):
        ds, fraction = case
        before = [r for r in ds.interactions if r.timestamp < TS_2019]
        train_users = {r.user_id for r in before}
        post = [r for r in ds.interactions if r.timestamp >= TS_2019 and r.user_id in train_users]
        assume(not before or not post)
        with pytest.raises(DegenerateSplitError):
            time_split(ds, TS_2019, valid_fraction=fraction)


class TestDomainPair:
    def test_overlap_intersection(self):
        src = make_dataset("s", [("a", "i1", 1), ("b", "i1", 2)])
        tgt = make_dataset("t", [("b", "j1", 1), ("c", "j1", 2)])
        pair = build_domain_pair(src, tgt)
        assert pair.overlap == {"b"}

    def test_disjoint_users_error(self):
        src = make_dataset("s", [("a", "i1", 1)])
        tgt = make_dataset("t", [("b", "j1", 1)])
        with pytest.raises(EmptyOverlapError):
            build_domain_pair(src, tgt)


class TestTimeSplit:
    def test_forced_chronology(self):
        ds = make_dataset(
            "d", [("u", "i1", TS_2018), ("u", "i2", TS_2020), ("u", "i3", TS_2021)]
        )
        bundle = time_split(ds, TS_2019, valid_fraction=0.5)
        assert [r.item_id for r in bundle.train] == ["i1"]
        assert [r.item_id for r in bundle.valid] == ["i2"]
        assert [r.item_id for r in bundle.test] == ["i3"]

    def test_post_only_user_dropped(self):
        ds = make_dataset(
            "d",
            [
                ("u", "i1", TS_2018),
                ("u", "i2", TS_2020),
                ("u", "i3", TS_2021),
                ("v", "i1", TS_2020),
            ],
        )
        bundle = time_split(ds, TS_2019, 0.5)
        users_post = {r.user_id for r in bundle.valid} | {r.user_id for r in bundle.test}
        assert "v" not in users_post
        dropped = len(ds.interactions) - len(bundle.train) - len(bundle.valid) - len(bundle.test)
        assert dropped == 1

    def test_counting_identity_on_synthetic_corpus(self):
        rng = np.random.default_rng(42)
        triples = []
        for k in range(1000):
            user = f"u{rng.integers(0, 60)}"
            item = f"i{rng.integers(0, 40)}"
            ts = int(rng.integers(TS_2018, TS_2021))
            triples.append((user, item, ts + k))  # keep triples unique
        ds = make_dataset("d", triples)
        bundle = time_split(ds, TS_2019, valid_fraction=0.5)
        train_users = {r.user_id for r in bundle.train}
        # enumeration oracle over every record
        dropped = sum(
            1
            for r in ds.interactions
            if r.timestamp >= TS_2019 and r.user_id not in train_users
        )
        total = len(bundle.train) + len(bundle.valid) + len(bundle.test) + dropped
        assert total == len(ds.interactions)
        # chronological per-user property
        by_user_valid = {}
        for r in bundle.valid:
            by_user_valid.setdefault(r.user_id, []).append(r.timestamp)
        for r in bundle.test:
            if r.user_id in by_user_valid:
                assert max(by_user_valid[r.user_id]) <= r.timestamp

    def test_monotonicity_in_boundary(self):
        rng = np.random.default_rng(7)
        triples = [
            (f"u{rng.integers(0, 10)}", f"i{rng.integers(0, 10)}", int(rng.integers(TS_2018, TS_2021)) + k)
            for k in range(300)
        ]
        ds = make_dataset("d", triples)
        sizes = []
        for boundary in (TS_2019, TS_2019 + 10_000_000, TS_2020):
            try:
                sizes.append(len(time_split(ds, boundary, 0.5).train))
            except DegenerateSplitError:
                sizes.append(len([r for r in ds.interactions if r.timestamp < boundary]))
        assert sizes == sorted(sizes)

    def test_degenerate_split_errors(self):
        ds = make_dataset("d", [("u", "i1", TS_2018)])
        with pytest.raises(DegenerateSplitError):
            time_split(ds, TS_2019, 0.5)  # nothing after the boundary
        with pytest.raises(DegenerateSplitError):
            time_split(ds, TS_2018 - 1000, 0.5)  # nothing before it


class TestIndexViews:
    def test_category_views(self):
        ds = make_dataset(
            "d",
            [
                ("u", "i1", 1, "catA"),
                ("u", "i2", 2, "catA"),
                ("u", "i3", 3, "catB"),
            ],
        )
        assert ds.distinct_items("u", "catA") == ["i1", "i2"]
        assert ds.interaction_count("u", "catA") == 2
        assert ds.distinct_items("u", "catC") == []

    def test_views_match_brute_force_group_by(self, tmp_path):
        """Each view is built on first read, alone, with the contents and
        the insertion order of a first-appearance group-by."""
        rng = np.random.default_rng(11)
        cats = {f"i{k}": f"cat{k % 5}" for k in range(30)}
        triples = [(f"u{rng.integers(0, 20)}", f"i{rng.integers(0, 30)}", k) for k in range(200)]
        write_jsonl(tmp_path / "meta.jsonl", [meta_row(i, c) for i, c in cats.items()])
        write_jsonl(
            tmp_path / "inter.jsonl",
            [{"user": u, "item": i, "rating": 5.0, "ts": ts} for u, i, ts in triples],
        )
        ds = load_domain(tmp_path / "inter.jsonl", tmp_path / "meta.jsonl", "d")
        assert "user_records" not in vars(ds) and "user_category_items" not in vars(ds)
        # full re-scan oracle
        expected: dict = {}
        for u, i, ts in triples:
            expected.setdefault(u, {}).setdefault(cats[i], Counter())[i] += 1
        assert ds.user_category_items == expected
        assert "user_records" not in vars(ds)

        def ordered(views):
            return [(u, [(c, list(items.items())) for c, items in per_cat.items()])
                    for u, per_cat in views.items()]

        assert ordered(ds.user_category_items) == ordered(expected)
        for u in ds.users:
            total = sum(
                ds.interaction_count(u, c) for c in ds.user_category_items[u]
            )
            assert total == sum(1 for t in triples if t[0] == u)
            assert ds.user_records[u] == [r for r in ds.interactions if r.user_id == u]
        assert list(ds.user_records) == list(expected)


class TestFixtureBytes:
    """The synthetic corpus is pinned to the byte: every stage key, golden
    metric and benchmark figure starts from these four files."""

    # sha256 of each file `write_fixture` writes, per spec
    WANT = {
        "acceptance_fixture": {  # FixtureSpec()
            "source_interactions.jsonl":
                "a9ddded10e3d47b614233a47fae8180108e0527d670d33778589c30ba372d226",
            "source_metadata.jsonl":
                "0b2947c7bf059648771eaac2d81511c7e2473b3e09c9acac27b8cd2c9b0ce872",
            "target_interactions.jsonl":
                "11776d596e385d92d74a27506ce9ab9504edf1547ef22074487b41a1a5c8cc84",
            "target_metadata.jsonl":
                "873296ba8fd93f443fb134616d92b28e7f0e58d074aa2f0d987ff7422df6d299",
        },
        "small_fixture": {  # conftest.small_fixture_spec()
            "source_interactions.jsonl":
                "2882dfe0e0a2ea84dc39002a52b7880add85754292d2502970adbec0f06181b0",
            "source_metadata.jsonl":
                "b89d9e7391972e2e692bca986ef29b9e4993ec9036db7b4744bd20eff62e986c",
            "target_interactions.jsonl":
                "da6a17a0b4c3226e2cedab773be18bb1b6cf84b38032e5f12b46ad8fb1639759",
            "target_metadata.jsonl":
                "928814cd8c6d70556ea32c9042179b94a453eaa9cf68820857013aa65301fe23",
        },
    }

    @pytest.mark.parametrize("fixture", sorted(WANT))
    def test_fixture_files_are_pinned(self, fixture, request):
        directory, _ = request.getfixturevalue(fixture)
        got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(directory.glob("*.jsonl"))}
        assert got == self.WANT[fixture]
