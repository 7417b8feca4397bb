"""Aggregate algebra tests: merge laws, flat-fold oracles, top-k, text codec."""

from __future__ import annotations

import copy
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import aggregates as agg
from melt.aggregates import (
    AggregateError,
    AggregateKindError,
    CountedKeyBody,
    HistogramBody,
    SummaryAgg,
    SummaryBody,
    body_from_text,
    body_to_text,
    display_value,
    empty_body,
    fold_samples,
    leaf_text,
    merge,
    merge_all,
    select_topk,
)


def summary_of(*pairs):
    body = SummaryBody()
    for group, metric, value, weight in pairs:
        body.add(group, metric, value, weight)
    return body


class TestSummaryMerge:
    def test_spec_example(self):
        a = SummaryAgg(2, 10, 1, 9)
        b = SummaryAgg(3, 6, 2, 4)
        merged = a.merge(b)
        assert (merged.count, merged.sum, merged.min, merged.max) == (5, 16, 1, 9)

    def test_identity(self):
        a = SummaryAgg(2, 10, 1, 9)
        merged = a.merge(SummaryAgg())
        assert (merged.count, merged.sum, merged.min, merged.max) == (2, 10, 1, 9)

    def test_flat_fold_matches_two_sided_fold(self):
        # oracle: fold the five raw values directly
        values = [1.0, 9.0, 2.0, 2.0, 4.0]
        left = SummaryAgg()
        for v in values[:2]:
            left.add(v)
        right = SummaryAgg()
        for v in values[2:]:
            right.add(v)
        flat = SummaryAgg()
        for v in values:
            flat.add(v)
        merged = left.merge(right)
        assert merged.count == flat.count
        assert merged.min == flat.min and merged.max == flat.max
        assert math.isclose(merged.sum, flat.sum, rel_tol=1e-9)


def random_tree_fold(rng: random.Random, items: list) -> agg.Body:
    """Fold bodies over a random binary tree shape."""
    if len(items) == 1:
        return items[0]
    cut = rng.randint(1, len(items) - 1)
    left = random_tree_fold(rng, items[:cut])
    right = random_tree_fold(rng, items[cut:])
    return merge(left, right)


def test_tree_shape_independence_1000_samples():
    rng = random.Random(7)
    samples = [("job." + str(rng.randint(0, 9)), "IO_RD_BW",
                rng.uniform(0, 1e9), 1.0) for _ in range(1000)]
    flat = fold_samples(samples, "summary")

    for trial in range(5):
        shuffled = samples[:]
        rng.shuffle(shuffled)
        # split into leaf bodies of random size, merge over a random tree
        leaves, i = [], 0
        while i < len(shuffled):
            n = rng.randint(1, 40)
            leaves.append(fold_samples(shuffled[i:i + n], "summary"))
            i += n
        tree = random_tree_fold(rng, leaves)
        assert set(tree.entries) == set(flat.entries)
        for key, agg_flat in flat.entries.items():
            agg_tree = tree.entries[key]
            assert agg_tree.count == agg_flat.count
            assert agg_tree.min == agg_flat.min
            assert agg_tree.max == agg_flat.max
            assert math.isclose(agg_tree.sum, agg_flat.sum, rel_tol=1e-9)


summary_bodies = st.builds(
    lambda pairs: summary_of(*pairs),
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]),
                       st.sampled_from(["IO_RD_BW", "META_OP_RATE"]),
                       st.floats(0, 1e6, allow_nan=False),
                       st.floats(0.5, 4, allow_nan=False)), max_size=8),
)

counted_bodies = st.builds(
    lambda pairs: fold_samples([(k, "", c, 1) for k, c in pairs], "counted-key"),
    st.lists(st.tuples(st.text(min_size=1, max_size=5), st.integers(1, 50)), max_size=8),
)


def assert_summary_close(a: SummaryBody, b: SummaryBody):
    assert set(a.entries) == set(b.entries)
    for key in a.entries:
        x, y = a.entries[key], b.entries[key]
        assert x.count == pytest.approx(y.count, rel=1e-9)
        assert x.sum == pytest.approx(y.sum, rel=1e-9, abs=1e-9)
        assert x.min == y.min and x.max == y.max


@given(summary_bodies, summary_bodies, summary_bodies)
@settings(max_examples=100)
def test_summary_merge_laws(a, b, c):
    assert_summary_close(merge(a, b), merge(b, a))
    assert_summary_close(merge(merge(a, b), c), merge(a, merge(b, c)))
    assert_summary_close(merge(a, empty_body("summary")), a)


@given(counted_bodies, counted_bodies, counted_bodies)
@settings(max_examples=100)
def test_counted_merge_laws(a, b, c):
    assert merge(a, b).counts == merge(b, a).counts
    assert merge(merge(a, b), c).counts == merge(a, merge(b, c)).counts
    assert merge(a, empty_body("counted-key")).counts == a.counts


HIST_EDGES = (1.0, 10.0, 100.0)

histogram_bodies = st.builds(
    lambda samples: fold_samples(samples, "histogram", HIST_EDGES),
    st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.sampled_from(["IO_RD_BW"]),
                       st.floats(0, 500, allow_nan=False), st.integers(1, 3)), max_size=8),
)


def reference_merge(a, b):
    """The copying pairwise merge the in-place fold replaced."""
    if isinstance(a, SummaryBody):
        out = SummaryBody(dict(a.entries))
        for key, one in b.entries.items():
            mine = out.entries.get(key)
            out.entries[key] = one.merge(mine) if mine else SummaryAgg(
                one.count, one.sum, one.min, one.max)
        return out
    if isinstance(a, HistogramBody):
        out = HistogramBody(edges=a.edges, entries={k: list(v) for k, v in a.entries.items()})
        for key, counts in b.entries.items():
            mine = out.entries.get(key)
            out.entries[key] = list(counts) if mine is None else [
                x + y for x, y in zip(mine, counts)]
        return out
    out = CountedKeyBody(dict(a.counts))
    for key, count in b.counts.items():
        out.counts[key] = out.counts.get(key, 0) + count
    return out


def inner_objects(body):
    values = body.counts.values() if isinstance(body, CountedKeyBody) else body.entries.values()
    return {id(v) for v in values if not isinstance(v, int)}


BODIES = {"summary": summary_bodies, "histogram": histogram_bodies,
          "counted-key": counted_bodies}


@pytest.mark.parametrize("kind", list(BODIES))
def test_merge_all_is_left_fold_and_leaves_inputs_alone(kind):
    edges = HIST_EDGES if kind == "histogram" else ()

    @given(st.lists(BODIES[kind], min_size=1, max_size=6))
    @settings(max_examples=60)
    def check(children):
        before = copy.deepcopy(children)
        want = empty_body(kind, edges)
        for child in children:
            want = reference_merge(want, child)
        got = merge_all(children, kind, edges)
        assert got == want
        assert merge(children[0], children[-1]) == reference_merge(children[0], children[-1])
        assert children == before
        assert not inner_objects(got) & set().union(*map(inner_objects, children))

    check()


def test_histogram_merge_and_conservation():
    edges = (10.0, 100.0, 1000.0)
    rng = random.Random(3)
    samples = [("g", "IO_RD_BW", rng.uniform(0, 2000), 1.0) for _ in range(500)]
    flat = fold_samples(samples, "histogram", edges)
    assert sum(map(sum, flat.entries.values())) == 500

    parts = [fold_samples(samples[i:i + 50], "histogram", edges) for i in range(0, 500, 50)]
    tree = random_tree_fold(rng, parts)
    assert tree.entries == flat.entries
    assert sum(map(sum, tree.entries.values())) == 500


def test_histogram_bucketing_edges():
    body = HistogramBody(edges=(10.0, 20.0))
    for v in (5, 10, 15, 20, 25):
        body.add("g", "m", v)
    assert body.entries[("g", "m")] == [1, 2, 2]


def test_kind_and_edge_mismatch():
    with pytest.raises(AggregateKindError):
        merge(SummaryBody(), CountedKeyBody())
    with pytest.raises(AggregateKindError):
        merge(HistogramBody(edges=(1.0,)), HistogramBody(edges=(2.0,)))
    with pytest.raises(AggregateError):
        HistogramBody(edges=(2.0, 1.0))


class TestDisplayValue:
    def test_sum_metric(self):
        body = summary_of(("j", "IO_RD_BW", 100.0, 1.0), ("j", "IO_RD_BW", 50.0, 1.0))
        assert display_value(body, "j", "IO_RD_BW") == 150.0

    def test_mean_metric_weighted(self):
        # two windows: 10 ops averaging 100 bytes, 30 ops averaging 200 bytes
        body = summary_of(("j", "IO_CLNT_AVG_RD_SZ", 100.0, 10.0),
                          ("j", "IO_CLNT_AVG_RD_SZ", 200.0, 30.0))
        assert display_value(body, "j", "IO_CLNT_AVG_RD_SZ") == pytest.approx(175.0)

    def test_missing_reads_zero(self):
        assert display_value(SummaryBody(), "j", "IO_RD_BW") == 0.0


class TestTopK:
    def test_published_ordering(self):
        gi = 1024 ** 3
        rates = {
            "conway.2789": 12 * gi,
            "tait.4321": 7.8 * gi,
            "euler.22397": 7.2 * gi,
            "tait.4334": 3.4 * gi,
            "euler.22388": 0.78 * gi,
        }
        body = summary_of(*[(j, "IO_RD_BW", v, 1.0) for j, v in rates.items()])
        ranked = select_topk(body, 5, "IO_RD_BW")
        assert [g for g, _ in ranked] == [
            "conway.2789", "tait.4321", "euler.22397", "tait.4334", "euler.22388"]

    def test_k_larger_than_groups(self):
        body = summary_of(("a", "IO_RD_BW", 1.0, 1.0), ("b", "IO_RD_BW", 2.0, 1.0))
        assert len(select_topk(body, 10, "IO_RD_BW")) == 2

    def test_tie_breaks_lexicographic(self):
        body = summary_of(("b", "IO_RD_BW", 5.0, 1.0), ("a", "IO_RD_BW", 5.0, 1.0))
        assert [g for g, _ in select_topk(body, 2, "IO_RD_BW")] == ["a", "b"]

    def test_counted_key(self):
        body = fold_samples([("/proj/a", "", 7, 1), ("/proj/b", "", 3, 1),
                             ("/proj/c", "", 9, 1)], "counted-key")
        assert select_topk(body, 2)[0] == ("/proj/c", 9.0)

    def test_absent_key_metric(self):
        body = summary_of(("a", "IO_RD_BW", 1.0, 1.0))
        with pytest.raises(AggregateError, match="META_OP_RATE"):
            select_topk(body, 1, "META_OP_RATE")

    def test_merge_then_topk_equals_bruteforce(self):
        rng = random.Random(11)
        for _ in range(20):
            n = rng.randint(1, 60)
            samples = [(f"job.{rng.randint(0, 12)}", "IO_RD_BW",
                        rng.choice([1.0, 2.5, 7.0, 7.0, 100.0]), 1.0)
                       for _ in range(n)]
            halves = [fold_samples(samples[: n // 2], "summary"),
                      fold_samples(samples[n // 2:], "summary")]
            merged = merge_all(halves, "summary")
            # brute force: total per key over the raw samples
            totals: dict[str, float] = {}
            for g, _m, v, w in samples:
                totals[g] = totals.get(g, 0.0) + v * w
            expect = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            got = select_topk(merged, 5, "IO_RD_BW")
            assert [g for g, _ in got] == [g for g, _ in expect]
            for (_, a), (_, b) in zip(got, expect):
                assert a == pytest.approx(b, rel=1e-9)


class TestTextCodec:
    def test_summary_roundtrip(self):
        body = summary_of(("job a%1\nx", "IO_RD_BW", 1.5, 2.0), ("j2", "META_OP_RATE", 3.0, 1.0))
        back = body_from_text(body_to_text(body))
        assert_summary_close(back, body)

    def test_histogram_roundtrip(self):
        body = HistogramBody(edges=(1.0, 10.5))
        body.add("g one", "m", 0.5)
        body.add("g one", "m", 5)
        body.add("g one", "m", 50)
        back = body_from_text(body_to_text(body))
        assert back.edges == body.edges and back.entries == body.entries

    def test_counted_roundtrip(self):
        body = CountedKeyBody({"/proj/a b": 3, "mkdir": 9})
        back = body_from_text(body_to_text(body))
        assert back.counts == body.counts

    def test_empty_bodies(self):
        for kind, edges in (("summary", ()), ("histogram", (1.0,)), ("histogram", ()),
                            ("counted-key", ())):
            body = empty_body(kind, edges)
            back = body_from_text(body_to_text(body))
            assert back == body

    def test_edgeless_histogram_round_trip(self):
        empty = empty_body("histogram")
        assert body_to_text(empty) == "kind=histogram\nedges"
        assert agg.merge_texts([], "histogram") == body_to_text(empty)
        one = HistogramBody()
        one.add("g x", "m", 3.0, 2)
        text = body_to_text(one)
        assert text == "kind=histogram\nedges\nh g%20x m 2"
        assert body_from_text(text) == one
        assert agg.merge_texts([text, body_to_text(empty), text], "histogram") == \
            "kind=histogram\nedges\nh g%20x m 4"
        # bodies with edges keep their spelling; the writer never adds a space
        assert body_to_text(HistogramBody((1.0, 10.5))) == "kind=histogram\nedges 1 10.5"
        for parse in (body_from_text, lambda t: agg.merge_texts([t], "histogram")):
            with pytest.raises(AggregateError, match="bad histogram line 'edges '"):
                parse("kind=histogram\nedges ")
            with pytest.raises(AggregateError, match="missing edges line"):
                parse("kind=histogram\nedgesx\nh g m 1")

    def test_deterministic_ordering(self):
        a = summary_of(("b", "M", 1, 1), ("a", "M", 2, 1))
        b = summary_of(("a", "M", 2, 1), ("b", "M", 1, 1))
        assert body_to_text(a) == body_to_text(b)

    def test_malformed(self):
        with pytest.raises(AggregateError):
            body_from_text("nonsense")
        with pytest.raises(AggregateError):
            body_from_text("kind=summary\ng too few")
        with pytest.raises(AggregateError):
            body_from_text("kind=wat")


# --- relay merge on text ----------------------------------------------------------

def reference_merge_texts(texts, aggregation, edges=()):
    """The relay hop before merge_texts: parse every child, fold, re-text."""
    return body_to_text(merge_all([body_from_text(t) for t in texts], aggregation, edges))


def outcome(fn, *args):
    try:
        return fn(*args)
    except AggregateError as exc:
        return type(exc), str(exc)


def wire_copy(text):
    """An equal text that is not the same object, as a frame decode gives."""
    return text.encode().decode()


def merge_texts_three_ways(texts, kind, edges, warm):
    """merge_texts's outcome with no table, then with a cold table, then
    with ``warm``, each given copies of the texts; all three must agree,
    and each table must change only as a merge may change it."""
    got = outcome(agg.merge_texts, texts, kind, edges)
    for table in ({}, warm):
        before = dict(table)
        result = outcome(agg.merge_texts, [wire_copy(t) for t in texts], kind, edges, table)
        assert result == got
        assert_table_kept(table, before, texts, result)
    return got


def assert_table_kept(table, before, texts, result):
    """A failed merge leaves the table as it was; one that succeeds pops
    its children and stores its result as it parses, and touches nothing
    else."""
    if isinstance(result, tuple):
        assert table.keys() == before.keys()
        assert all(table[text] is before[text] for text in table)
        return
    assert table.keys() == (before.keys() - set(texts)) | {result}
    assert all(table[text] is before[text] for text in table if text != result)
    assert table[result] == agg._parse(result)


# "a b" sorts before "a!" unescaped but after it escaped ("a%20b" > "a!")
TEXT_KEYS = ["", "a", "a b", "a!", "a%", "a%20", "b\nc", "%25", "z"]
TEXT_METRICS = ["IO_RD_BW", "M x"]
TEXT_EDGES = (1.0, 10.0)
finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)

summary_rows = st.tuples(st.sampled_from(TEXT_KEYS), st.sampled_from(TEXT_METRICS),
                         st.sampled_from([0, 1, -1, 2, 0.5, 3]), finite, finite, finite)
histogram_rows = st.tuples(st.sampled_from(TEXT_KEYS), st.sampled_from(TEXT_METRICS),
                           st.lists(st.integers(-3, 9), min_size=3, max_size=3))
counted_rows = st.tuples(st.sampled_from(TEXT_KEYS), st.integers(-3, 9))
ROWS = {"summary": summary_rows, "histogram": histogram_rows, "counted-key": counted_rows}


def child_text(kind, rows, ordered, edges=TEXT_EDGES):
    """A child body as a melt process spells it: ``_num`` numbers, ``_esc``
    keys. Rows may repeat a key and carry a count of 0; unless ``ordered``,
    the lines stay in the order drawn."""
    if ordered:
        rows = sorted(rows, key=lambda row: row[:-1] if kind == "counted-key" else row[:2])
    lines = [f"kind={kind}"]
    if kind == "histogram":
        lines.append("edges " + " ".join(agg._num(e) for e in edges))
    for row in rows:
        if kind == "summary":
            group, metric, *values = row
            lines.append(f"g {agg._esc(group)} {agg._esc(metric)} "
                         + " ".join(agg._num(v) for v in values))
        elif kind == "histogram":
            group, metric, counts = row
            lines.append(f"h {agg._esc(group)} {agg._esc(metric)} "
                         + " ".join(map(str, counts)))
        else:
            lines.append(f"c {agg._esc(row[0])} {row[1]}")
    return "\n".join(lines)


def warm_table(*texts) -> dict:
    """A table that already holds the outputs of merges of every kind and
    of three histogram widths, then those of ``texts``, each merged alone."""
    rows = [("a", "M x", 1, 2, 2, 2), ("a b", "IO_RD_BW", 2, 3, 1, 2)]
    texts = [child_text("summary", rows, True),
             child_text("counted-key", [("a", 1), ("%25", 3)], True),
             *(child_text("histogram", [("a", "IO_RD_BW", [1] * len(edges) + [2])], True, edges)
               for edges in ((2.0,), TEXT_EDGES, (1.0, 2.0, 3.0))),
             *texts]
    table: dict = {}
    for text in texts:
        body = body_from_text(text)
        agg.merge_texts([text], body.kind, getattr(body, "edges", ()), table)
    return table


@pytest.mark.parametrize("kind", list(ROWS))
def test_merge_texts_is_byte_identical_to_the_parse_path(kind):
    edges = TEXT_EDGES if kind == "histogram" else ()
    children = st.tuples(st.lists(ROWS[kind], max_size=6), st.booleans())
    warm = warm_table()  # and each example adds the output of an earlier round

    @given(st.lists(children, max_size=5))
    @settings(max_examples=300)
    def check(drawn):
        texts = [child_text(kind, rows, ordered) for rows, ordered in drawn]
        assert merge_texts_three_ways(texts, kind, edges, warm) == \
            outcome(reference_merge_texts, texts, kind, edges)

    check()


@pytest.mark.parametrize("kind", list(ROWS))
def test_a_tree_of_merges_is_the_same_with_or_without_a_table(kind):
    """Lower hops merge random children; their outputs, copied as a frame
    decode copies them, and some leaves are a higher hop's children."""
    edges = TEXT_EDGES if kind == "histogram" else ()
    children = st.tuples(st.lists(ROWS[kind], max_size=6), st.booleans())
    warm = warm_table()  # and each example adds the top of an earlier tree

    @given(st.lists(st.lists(children, min_size=1, max_size=3), min_size=1, max_size=3),
           st.lists(children, max_size=2), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=200)
    def check(groups, leaves, twice, rng):
        lower = [[child_text(kind, rows, ordered) for rows, ordered in group] for group in groups]
        leaves = [child_text(kind, rows, ordered) for rows, ordered in leaves]
        order = rng.sample(range(len(lower) + twice + len(leaves)),
                           len(lower) + twice + len(leaves))

        def tree(table):
            outs = [agg.merge_texts(texts, kind, edges, table) for texts in lower]
            upper = [wire_copy(out) for out in outs] + [wire_copy(outs[0])] * twice + leaves
            upper = [upper[i] for i in order]
            return outs, upper, outcome(agg.merge_texts, upper, kind, edges, table)

        plain = tree(None)
        cold: dict = {}
        assert tree(cold) == plain == tree(warm)
        outs, upper, top = plain
        assert outs == [reference_merge_texts(texts, kind, edges) for texts in lower]
        assert top == outcome(reference_merge_texts, upper, kind, edges)
        # the higher hop took every lower output; only its own is in flight
        held = outs if isinstance(top, tuple) else [top]
        assert cold == {text: agg._parse(text) for text in held}

    check()


def test_a_lone_known_child_is_passed_on_as_it_is():
    table: dict = {}
    child = "kind=summary\ng b M 1 2 2 2\ng a M 1.0 5 5 5\ng c M 0 1 1 1"
    out = agg.merge_texts([child], "summary", (), table)
    assert out == "kind=summary\ng a M 1.0 5 5 5\ng b M 1 2 2 2" and list(table) == [out]
    entry = table[out]
    copy = wire_copy(out)
    assert agg.merge_texts([copy], "summary", (), table) is copy
    assert table == {out: entry} and table[copy] is entry
    # an int and a float edge of one value may be spelled apart: a known
    # child under another header is merged as any other
    big = 2 ** 53 + 2
    text = agg.merge_texts([], "histogram", (1, big), table)
    assert text == "kind=histogram\nedges 1 9007199254740994"
    assert agg.merge_texts([wire_copy(text)], "histogram", (1, float(big)), table) == \
        reference_merge_texts([text], "histogram", (1, float(big))) == \
        "kind=histogram\nedges 1 9007199254740994.0"


def test_a_lone_fresh_child_that_is_canonical_is_passed_on_as_it_is():
    """A lone child parsed anew is returned itself when it is what its
    merge would write, and merged as any other when it is not: a key out of
    order, a summary line with count 0, a blank line, edges spelled apart."""
    child = "kind=summary\ng a M 1.0 5 5 5\ng b M 1 2 2 2"
    table: dict = {}
    assert agg.merge_texts([child], "summary", (), table) is child
    assert table == {child: agg._parse(child)}
    hist = "kind=histogram\nedges 1 10\nh a M 1 2 3"
    assert agg.merge_texts([hist], "histogram", (1.0, 10.0)) is hist
    assert agg.merge_texts(["kind=counted-key"], "counted-key") == "kind=counted-key"
    for text, aggregation, edges in [
            ("kind=summary\ng b M 1 2 2 2\ng a M 1 5 5 5", "summary", ()),
            ("kind=summary\ng a M 1 5 5 5\ng b M 0 2 2 2", "summary", ()),
            ("kind=summary\ng a M 1 5 5 5\n", "summary", ()),
            ("kind=summary\n\ng a M 1 5 5 5", "summary", ()),
            ("kind=histogram\nedges 1 10.0\nh a M 1 2 3", "histogram", (1.0, 10.0)),
            ("kind=histogram\nedges 1 10\n\nh a M 1 2 3", "histogram", (1.0, 10.0))]:
        out = agg.merge_texts([text], aggregation, edges)
        assert out is not text and out == reference_merge_texts([text], aggregation, edges)


def test_two_identical_known_children_fold_as_two():
    table: dict = {}
    child = agg.merge_texts([child_text("counted-key", [("k", 3), ("j", 1)], True)],
                            "counted-key", (), table)
    out = agg.merge_texts([child, wire_copy(child)], "counted-key", (), table)
    assert out == "kind=counted-key\nc j 2\nc k 6" == \
        reference_merge_texts([child, child], "counted-key")
    assert table == {out: agg._parse(out)}
    summary = agg.merge_texts([child_text("summary", [("a", "M", 1, 2, 1, 2)], True)],
                              "summary", (), table)
    out = agg.merge_texts([summary, summary, summary], "summary", (), table)
    assert out == "kind=summary\ng a M 3 6 1 2"


def test_a_failed_merge_stores_nothing_and_a_consumed_child_is_popped():
    table: dict = {}
    low = agg.merge_texts([child_text("summary", [("a", "M", 1, 5, 5, 5)], True)],
                          "summary", (), table)
    entry = table[low]
    other = agg.merge_texts([child_text("summary", [("b", "M", 1, 2, 2, 2)], True)],
                            "summary", (), table)
    bad = "kind=summary\ng c M 1 nan 1 1"
    for texts, kind in (([low, bad], "summary"), ([low], "counted-key"),
                        ([low, "kind=summary\ng a M 1 1e308 1 1"] * 2, "summary")):
        with pytest.raises(AggregateError):
            agg.merge_texts([wire_copy(t) for t in texts], kind, (), table)
        assert table == {low: entry, other: table[other]} and table[low] is entry
    top = agg.merge_texts([wire_copy(low), "kind=summary\ng c M 1 1 1 1"], "summary", (), table)
    assert top == "kind=summary\ng a M 1 5 5 5\ng c M 1 1 1 1"
    assert list(table) == [other, top] and table[top] == agg._parse(top)


def test_merge_texts_edge_cases():
    one = child_text("summary", [("a b", "M", 1, 2, 2, 2), ("a!", "M", 1, 5, 5, 5)], True)
    # lines go in unescaped key order, which is not the order of their text
    assert one.split("\n")[1:] == ["g a%20b M 1 2 2 2", "g a! M 1 5 5 5"]
    two = child_text("summary", [("a b", "M", 1, 1, 1, 1), ("a!", "M", 2, 1, 0, 1)], True)
    cancel = child_text("summary", [("a b", "M", -1, -2, 1, 1)], True)
    repeated = child_text("counted-key", [("k", 1), ("k", 4)], True)
    unsorted = child_text("counted-key", [("z", 2), ("k", 3), ("a", 1)], False)
    cases = [
        ([one, cancel], "summary", ()),            # a b merges to count 0
        ([one], "summary", ()),                    # one child passes through
        ([one, two, one], "summary", ()),
        ([repeated, repeated], "counted-key", ()),  # each child's last line
        ([unsorted, repeated], "counted-key", ()),
        ([], "summary", ()), ([], "histogram", TEXT_EDGES), ([], "counted-key", ()),
    ]
    for texts, kind, edges in cases:
        assert agg.merge_texts(texts, kind, edges) == reference_merge_texts(texts, kind, edges)
    assert agg.merge_texts([one, cancel], "summary") == "kind=summary\ng a! M 1 5 5 5"
    assert agg.merge_texts([repeated, repeated], "counted-key") == "kind=counted-key\nc k 8"
    assert agg.merge_texts([], "histogram", TEXT_EDGES) == "kind=histogram\nedges 1 10"


MISMATCHED = [child_text("summary", [("a", "M", 1, 1, 1, 1)], True),
              child_text("counted-key", [("a", 1)], True),
              child_text("histogram", [("a", "M", [1, 0, 0])], True),
              child_text("histogram", [("a", "M", [1, 0])], True, edges=(2.0,)),
              "kind=summary\ng a M 1 x 1 1",
              "kind=counted-key\nc a 1.5"]
# lines that a body of another kind or width holds as good ones
WRONG_PLACE = ["kind=summary\nc a 1",
               "kind=counted-key\ng a M 1 1 1 1",
               "kind=histogram\nedges 1 10\nh a M 1 0",
               "kind=histogram\nedges 2\nh a M 1 0 0"]
@given(st.lists(st.sampled_from(MISMATCHED + WRONG_PLACE), max_size=4),
       st.sampled_from(["summary", "histogram", "counted-key", "wat"]))
@settings(max_examples=300)
def test_merge_texts_raises_what_the_parse_path_raises(texts, kind):
    edges = TEXT_EDGES if kind == "histogram" else ()
    warm = warm_table(*MISMATCHED[:4])  # holds every WRONG_PLACE line in a good body
    assert merge_texts_three_ways(texts, kind, edges, warm) == \
        outcome(reference_merge_texts, texts, kind, edges)


def test_lines_in_the_wrong_place_are_refused_with_a_memo():
    warm = warm_table(*MISMATCHED[:4])  # holds every WRONG_PLACE line in a good body
    for text, edges in zip(WRONG_PLACE, [(), (), TEXT_EDGES, (2.0,)]):
        kind = text.split("\n")[0][len("kind="):]
        line = text.split("\n")[-1]
        assert any(line in known.split("\n") for known in warm)
        before = dict(warm)
        with pytest.raises(AggregateError, match=f"bad {kind} line '{line}'"):
            agg.merge_texts([text], kind, edges, warm)
        assert warm == before
    # a known body is still refused by a merge of another kind or edges
    summary, counted, histogram, other_edges = MISMATCHED[:4]
    assert {summary, counted, histogram, other_edges} <= warm.keys()
    with pytest.raises(AggregateKindError, match="cannot merge counted-key with summary"):
        agg.merge_texts([wire_copy(summary)], "counted-key", (), warm)
    with pytest.raises(AggregateKindError, match="histogram edge mismatch"):
        agg.merge_texts([wire_copy(other_edges)], "histogram", TEXT_EDGES, warm)


def test_merge_texts_error_order():
    summary, counted, histogram, other_edges, bad_sum, bad_count = MISMATCHED
    with pytest.raises(AggregateKindError, match="cannot merge summary with counted-key"):
        agg.merge_texts([summary, counted, histogram], "summary")
    with pytest.raises(AggregateKindError, match="histogram edge mismatch"):
        agg.merge_texts([histogram, other_edges, summary], "histogram", TEXT_EDGES)
    # every child is parsed before any kind is checked
    with pytest.raises(AggregateError, match="bad counted-key line 'c a 1.5'"):
        agg.merge_texts([counted, summary, bad_count], "counted-key")


def test_merge_texts_keeps_non_canonical_spellings_equal():
    children = ["kind=summary\ng a%41 M 1.0 2.50 +2.5 25e-1",
                "kind=summary\ng b M 2 3 1 2\ng c M 1 1_0 10 10.",
                "kind=summary\ng b M 1.0 1e0 1 1\ng d M 0.0 1 1 1"]
    merged = agg.merge_texts(children, "summary")
    assert merged.split("\n")[1] == "g a%41 M 1.0 2.50 +2.5 25e-1"  # one owner: verbatim
    assert body_from_text(merged) == body_from_text(reference_merge_texts(children, "summary"))
    counted = ["kind=counted-key\nc k 007", "kind=counted-key\nc j +3\nc k 1"]
    assert body_from_text(agg.merge_texts(counted, "counted-key")).counts == {"j": 3, "k": 8}
    hist = ["kind=histogram\nedges 1.0 1e1\nh g M 01 2 3"]
    assert body_from_text(agg.merge_texts(hist, "histogram", TEXT_EDGES)).entries == \
        {("g", "M"): [1, 2, 3]}


def test_merged_summary_overflow_is_an_aggregate_error():
    huge = "kind=summary\ng a M 1 1e308 1 1"
    with pytest.raises(AggregateError, match="overflows"):
        agg.merge_texts([huge, huge], "summary")


@pytest.mark.parametrize("text, message", [
    ("kind=summary\ng a b x 1 1 1", "bad summary line 'g a b x 1 1 1'"),
    ("kind=summary\ng a b 1 nan 1 1", "bad summary line"),
    ("kind=summary\ng a b 1 1 -inf 1", "bad summary line"),
    ("kind=summary\ng a b 1 1 1 1e999", "bad summary line"),
    ("kind=histogram\nedges 1 2\nh a b 1 2.5 3", "bad histogram line 'h a b 1 2.5 3'"),
    ("kind=histogram\nedges 1 x\nh a b 1 2 3", "bad histogram line 'edges 1 x'"),
    ("kind=histogram\nedges 1 inf\nh a b 1 2 3", "bad histogram line 'edges 1 inf'"),
    ("kind=counted-key\nc a 1.5", "bad counted-key line 'c a 1.5'"),
    ("kind=counted-key\nc a x", "bad counted-key line"),
], ids=["summary-word", "summary-nan", "summary-inf", "summary-overflow",
        "histogram-count", "histogram-edge", "histogram-inf-edge", "counted-float",
        "counted-word"])
def test_bad_numbers_raise_aggregate_error(text, message):
    kind = text.split("\n")[0][len("kind="):]
    edges = (1.0, 2.0) if kind == "histogram" else ()
    for parse in (body_from_text, lambda t: agg.merge_texts([t], kind, edges)):
        with pytest.raises(AggregateError, match=message.replace("(", r"\(")):
            parse(text)


# --- the leaf writer against fold and text -----------------------------------------

leaf_groups = st.sampled_from(["", "n1", "n2", "job 7", "a%20b", "100%", "two\nlines",
                               "unassigned"])
leaf_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 2.0 ** 53, 2.0 ** 53 + 2, -(2.0 ** 60), 1e300,
                     math.inf, -math.inf, math.nan, 0.1]),
    st.integers(-3, 3), st.sampled_from([2 ** 53 + 1, 10 ** 20]))
leaf_weights = st.sampled_from([1.0, 1.0, 1.0, 1, 2.0, 0.5, 0.0, 3])
leaf_rows = st.lists(st.tuples(leaf_groups, st.sampled_from(["IO_RD_BW", "IO_WR_BW", "OP_COUNT"]),
                               leaf_values, leaf_weights), max_size=6)


def leaf_outcome(fn, rows, aggregation, edges):
    try:
        return "ok", fn(rows, aggregation, edges)
    except AggregateError as exc:
        return type(exc), str(exc)
    except (ValueError, OverflowError) as exc:  # int() of a non-finite counted value
        return type(exc), str(exc)


@given(leaf_rows, st.sampled_from(["summary", "histogram", "counted-key"]),
       st.sampled_from([(), (0.0, 10.0), (-1.0, 1.0, 1e6)]), st.booleans())
@settings(max_examples=1000)
def test_leaf_text_is_fold_then_text(rows, aggregation, edges, unique):
    if unique:  # the common case: each (group, metric) once, weight 1
        rows = list({(g, m): (g, m, v, 1.0) for g, m, v, _w in rows}.values())
    assert leaf_outcome(leaf_text, rows, aggregation, edges) == leaf_outcome(
        lambda *args: body_to_text(fold_samples(*args)), rows, aggregation, edges)


def test_leaf_text_writes_unique_summary_lines_straight():
    rows = [("n2", "IO_WR_BW", 2.0 ** 53, 1.0), ("n 1", "IO_RD_BW", -0.0, 1.0),
            ("n1", "IO_RD_BW", 0.5, 1.0)]
    assert leaf_text(rows, "summary") == (
        "kind=summary\ng n%201 IO_RD_BW 1 0 0 0\ng n1 IO_RD_BW 1 0.5 0.5 0.5\n"
        "g n2 IO_WR_BW 1 9007199254740992.0 9007199254740992.0 9007199254740992.0")
    with pytest.raises(AggregateError, match="overflows"):
        leaf_text([("n1", "IO_RD_BW", math.inf, 1.0)], "summary")
