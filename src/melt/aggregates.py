"""Mergeable per-round aggregates and their text encoding.

Three body kinds travel inside Data records: summary (count/sum/min/max per
group and metric), histogram (fixed-edge bucket tallies per group and
metric), and counted-key (plain event tallies keyed by client, operation, or
path). All three merge associatively and commutatively with an identity, so
any tree of partial merges equals the flat fold of the underlying samples
(exactly for counts and extrema, within float-sum reassociation for sums).

Top-k selection happens only at the presentation point; the full key set
always travels the tree.

Leaves write bodies with :func:`leaf_text`, which is
``body_to_text(fold_samples(...))`` with the fold skipped for the common
summary of unique keys, and consumers read them with
:func:`body_from_text`. Relays merge on the text: :func:`merge_texts`
checks each child's lines with the same parser, passes a line whose key
only one child sends through verbatim, and folds and re-formats only the
keys that several children share. For every body a melt process writes,
its output is byte-identical to ``body_to_text(merge_all(...))`` of the
parsed children.

A relay hop may pass :func:`merge_texts` a table of the bodies it and the
other hops sharing the table merged: a dict from each output text to what
the parser returns for it. A merge output is canonical (sorted unique
keys, no count-0 summary line, the header of its stream), so a hop whose
only child is in the table returns that text unchanged, and a hop with
several children takes the known ones' entries from it instead of parsing
them. An equal text always parses to equal entries, and only texts that a
merge produced are stored, so output and errors are the same with or
without a table. The table's owner decides its scope; the overlay keeps
one per host for the round in flight of each stream
(``overlay.MergedBodies``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

from .catalog import CATALOG, metric as metric_def


class AggregateError(ValueError):
    pass


class AggregateKindError(AggregateError):
    """Merge of incompatible aggregate kinds or histogram edges."""


@dataclass
class SummaryAgg:
    """count/sum/min/max over weighted observations; count 0 is the identity."""

    count: float = 0.0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def add(self, value: float, weight: float = 1.0) -> None:
        self.count += weight
        self.sum += value * weight
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def merge(self, other: "SummaryAgg") -> "SummaryAgg":
        return SummaryAgg(
            self.count + other.count,
            self.sum + other.sum,
            min(self.min, other.min),
            max(self.max, other.max),
        )

    @property
    def empty(self) -> bool:
        return self.count == 0


def _num(x: float) -> str:
    if x == int(x) and abs(x) < 2 ** 53:
        return str(int(x))
    return repr(x)


def _esc(token: str) -> str:
    if "%" in token or " " in token or "\n" in token:
        return token.replace("%", "%25").replace(" ", "%20").replace("\n", "%0A")
    return token


def _unesc(token: str) -> str:
    return token.replace("%0A", "\n").replace("%20", " ").replace("%25", "%")


@dataclass
class SummaryBody:
    kind = "summary"
    entries: dict[tuple[str, str], SummaryAgg] = field(default_factory=dict)

    def add(self, group: str, metric: str, value: float, weight: float = 1.0) -> None:
        agg = self.entries.get((group, metric))
        if agg is None:
            agg = self.entries[(group, metric)] = SummaryAgg()
        agg.add(value, weight)

    def groups(self) -> list[str]:
        return sorted({g for g, _ in self.entries})


def _check_edges(edges: tuple[float, ...]) -> None:
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise AggregateError("histogram edges must be strictly increasing")


@dataclass
class HistogramBody:
    kind = "histogram"
    edges: tuple[float, ...] = ()
    entries: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_edges(self.edges)

    def add(self, group: str, metric: str, value: float, weight: float = 1.0) -> None:
        counts = self.entries.get((group, metric))
        if counts is None:
            counts = self.entries[(group, metric)] = [0] * (len(self.edges) + 1)
        idx = 0
        while idx < len(self.edges) and value >= self.edges[idx]:
            idx += 1
        counts[idx] += int(weight)

    def total(self) -> int:
        return sum(sum(c) for c in self.entries.values())

    def groups(self) -> list[str]:
        return sorted({g for g, _ in self.entries})


@dataclass
class CountedKeyBody:
    kind = "counted-key"
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, key: str, count: int = 1) -> None:
        if count <= 0:
            return
        self.counts[key] = self.counts.get(key, 0) + count


Body = SummaryBody | HistogramBody | CountedKeyBody


def empty_body(aggregation: str, edges: tuple[float, ...] = ()) -> Body:
    if aggregation == "summary":
        return SummaryBody()
    if aggregation == "histogram":
        return HistogramBody(edges=tuple(edges))
    if aggregation == "counted-key":
        return CountedKeyBody()
    raise AggregateError(f"unknown aggregation {aggregation!r}")


def merge(a: Body, b: Body) -> Body:
    """Merge two aggregate bodies of the same kind into a new body."""
    return merge_all((a, b), a.kind, a.edges if isinstance(a, HistogramBody) else ())


def merge_all(bodies, aggregation: str, edges: tuple[float, ...] = ()) -> Body:
    """Fold bodies left to right in the given (canonical) order.

    The fold goes into one accumulator in place; the input bodies are
    neither changed nor aliased by the result.
    """
    out = empty_body(aggregation, edges)
    for body in bodies:
        _merge_into(out, body)
    return out


def _merge_into(out: Body, b: Body) -> None:
    """Add ``b`` into the accumulator ``out``, whose entries it owns."""
    if out.kind != b.kind:
        raise AggregateKindError(f"cannot merge {out.kind} with {b.kind}")
    if isinstance(out, SummaryBody) and isinstance(b, SummaryBody):
        entries = out.entries
        for key, agg in b.entries.items():
            mine = entries.get(key)
            if mine is None:
                entries[key] = SummaryAgg(agg.count, agg.sum, agg.min, agg.max)
            else:  # operands in the order of agg.merge(mine)
                mine.count = agg.count + mine.count
                mine.sum = agg.sum + mine.sum
                mine.min = min(agg.min, mine.min)
                mine.max = max(agg.max, mine.max)
        return
    if isinstance(out, HistogramBody) and isinstance(b, HistogramBody):
        if out.edges != b.edges:
            raise AggregateKindError("histogram edge mismatch")
        entries = out.entries
        for key, counts in b.entries.items():
            mine = entries.get(key)
            entries[key] = list(counts) if mine is None else [x + y for x, y in zip(mine, counts)]
        return
    if isinstance(out, CountedKeyBody) and isinstance(b, CountedKeyBody):
        tally = out.counts
        for key, count in b.counts.items():
            tally[key] = tally.get(key, 0) + count
        return
    raise AggregateKindError(f"cannot merge {type(out).__name__} with {type(b).__name__}")


def fold_samples(contributions, aggregation: str, edges: tuple[float, ...] = ()) -> Body:
    """Flat-fold (group, metric, value, weight) tuples into one body.

    This is the leaf pre-aggregation and, run over a whole round's leaf
    tuples, the brute-force oracle a tree merge is checked against.
    """
    body = empty_body(aggregation, edges)
    if isinstance(body, CountedKeyBody):
        for group, _metric, value, _weight in contributions:
            body.add(group, int(value))
        return body
    for group, metric, value, weight in contributions:
        body.add(group, metric, value, weight)
    return body


# --- display values and top-k -------------------------------------------------

def display_value(body: SummaryBody, group: str, metric: str) -> float:
    """The group's canonical value for a metric: sum or weighted mean.

    Missing entries read as zero so sparse groups still render full rows.
    """
    agg = body.entries.get((group, metric))
    if agg is None or agg.empty:
        return 0.0
    if metric_def(metric).accumulate == "mean":
        return agg.sum / agg.count
    return agg.sum


def select_topk(body: Body, k: int, key_metric: str | None = None) -> list[tuple[str, float]]:
    """Rank groups (or counted keys) by descending value and keep the top k.

    Ties break toward ascending key text. For summary bodies the rank value
    is :func:`display_value` of ``key_metric``; for counted-key bodies it is
    the count and ``key_metric`` is ignored.
    """
    if k < 1:
        raise AggregateError(f"k must be >= 1, got {k}")

    if isinstance(body, CountedKeyBody):
        ranked = [(key, float(count)) for key, count in body.counts.items()]
    elif isinstance(body, SummaryBody):
        if key_metric is None:
            raise AggregateError("summary top-k needs a key metric")
        if all(m != key_metric for _, m in body.entries):
            raise AggregateError(f"key metric {key_metric} absent from aggregate")
        ranked = [(g, display_value(body, g, key_metric)) for g in body.groups()]
    else:
        raise AggregateError("top-k over histogram bodies is not defined")

    ranked.sort(key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


# --- wire text encoding -------------------------------------------------------

def _summary_line(key: tuple[str, str], values: tuple) -> str | None:
    """The line of one (count, sum, min, max) entry; None for count 0."""
    count, total, lo, hi = values
    if count == 0:
        return None
    if not (math.isfinite(count) and math.isfinite(total)):
        raise AggregateError(f"summary of {key!r} overflows")
    return (f"g {_esc(key[0])} {_esc(key[1])} {_num(count)} "
            f"{_num(total)} {_num(lo)} {_num(hi)}")


def _histogram_line(key: tuple[str, str], counts: list[int]) -> str:
    return f"h {_esc(key[0])} {_esc(key[1])} " + " ".join(str(c) for c in counts)


def _counted_line(key: str, count: int) -> str:
    return f"c {_esc(key)} {count}"


def _edges_line(edges: tuple[float, ...]) -> str:
    return " ".join(["edges", *map(_num, edges)])  # "edges" alone for no edges


def body_to_text(body: Body) -> str:
    """Deterministic line encoding carried inside Data records."""
    lines = [f"kind={body.kind}"]
    if isinstance(body, SummaryBody):
        for key, agg in sorted(body.entries.items()):
            line = _summary_line(key, (agg.count, agg.sum, agg.min, agg.max))
            if line is not None:
                lines.append(line)
    elif isinstance(body, HistogramBody):
        lines.append(_edges_line(body.edges))
        lines.extend(_histogram_line(key, counts) for key, counts in sorted(body.entries.items()))
    else:
        lines.extend(_counted_line(key, count) for key, count in sorted(body.counts.items()))
    return "\n".join(lines)


def leaf_text(contributions: list, aggregation: str, edges: tuple[float, ...] = ()) -> str:
    """``body_to_text(fold_samples(contributions, aggregation, edges))``.

    A leaf's summary whose (group, metric) keys are unique, each with
    weight 1 and a finite float value, is written straight from the sorted
    contributions: each line reads ``g <group> <metric> 1 <v> <v> <v>``.
    Every other body, and so every error, comes from the fold and
    :func:`body_to_text`.
    """
    if aggregation == "summary":
        lines = ["kind=summary"]
        last = None
        isfinite = math.isfinite
        for group, metric, value, weight in sorted(contributions):
            if (group, metric) == last or weight != 1.0 or type(value) is not float \
                    or not isfinite(value):
                break
            last = group, metric
            v = _num(value)
            lines.append(f"g {_esc(group)} {_esc(metric)} 1 {v} {v} {v}")
        else:
            return "\n".join(lines)
    return body_to_text(fold_samples(contributions, aggregation, edges))


def _bad(kind: str, line: str) -> AggregateError:
    return AggregateError(f"bad {kind} line {line!r}")


# the catalog's metric name strings: a parsed key names one of them, not a
# copy, so the entries that a host holds for a round share them
_METRIC_NAMES = {d.name: d.name for d in CATALOG}


def _summary_entries(lines: list[str], escaped: bool, width: int) -> list[tuple]:
    entries: list[tuple] = []
    append = entries.append
    isfinite = math.isfinite
    for ln in lines:
        try:
            head, group, metric, count, total, lo, hi = ln.split(" ")
            count, total, lo, hi = float(count), float(total), float(lo), float(hi)
        except ValueError:  # too few or many fields, or a field not a number
            raise _bad("summary", ln) from None
        if head != "g" or not (isfinite(count) and isfinite(total)
                               and isfinite(lo) and isfinite(hi)):
            raise _bad("summary", ln)
        if escaped:
            group, metric = _unesc(group), _unesc(metric)
        append(((group, _METRIC_NAMES.get(metric, metric)), ln, (count, total, lo, hi)))
    return entries


def _histogram_entries(lines: list[str], escaped: bool, width: int) -> list[tuple]:
    entries: list[tuple] = []
    append = entries.append
    for ln in lines:
        parts = ln.split(" ")
        if len(parts) != width or parts[0] != "h":
            raise _bad("histogram", ln)
        try:
            values = list(map(int, parts[3:]))
        except ValueError:
            raise _bad("histogram", ln) from None
        group, metric = parts[1], parts[2]
        if escaped:
            group, metric = _unesc(group), _unesc(metric)
        append(((group, _METRIC_NAMES.get(metric, metric)), ln, values))
    return entries


def _counted_entries(lines: list[str], escaped: bool, width: int) -> list[tuple]:
    entries: list[tuple] = []
    append = entries.append
    for ln in lines:
        try:
            head, key, count = ln.split(" ")
            count = int(count)
        except ValueError:
            raise _bad("counted-key", ln) from None
        if head != "c":
            raise _bad("counted-key", ln)
        append((_unesc(key) if escaped else key, ln, count))
    return entries


# kind -> the check of its entry lines, in order, into entries
_ENTRIES = {"summary": _summary_entries, "histogram": _histogram_entries,
            "counted-key": _counted_entries}


def _parse(text: str) -> tuple[str, tuple[float, ...], list[tuple]]:
    """Check one body's lines; return (kind, edges, entries).

    This is the one reader of the line format. Each entry is
    ``(key, line, values)`` in line order: ``key`` is the unescaped
    (group, metric) pair, or the unescaped counted key; ``values`` are the
    summary's finite (count, sum, min, max), the histogram's bucket counts,
    or the counted key's count. A malformed line, or a number that is not
    finite or, where a count is due, not an integer, raises
    :class:`AggregateError`.
    """
    lines = text.split("\n")
    if not lines[0].startswith("kind="):
        raise AggregateError("aggregate body missing kind line")
    kind = lines[0][len("kind="):]
    check = _ENTRIES.get(kind)
    if check is None:
        raise AggregateError(f"unknown aggregate kind {kind!r}")
    rest = [ln for ln in lines[1:] if ln]
    edges: tuple[float, ...] = ()
    width = 0
    if kind == "histogram":
        head, *fields = rest[0].split(" ") if rest else ("",)
        if head != "edges":
            raise AggregateError("histogram body missing edges line")
        try:
            edges = tuple(float(e) for e in fields)
        except ValueError:
            raise _bad(kind, rest[0]) from None
        if not all(map(math.isfinite, edges)):
            raise _bad(kind, rest[0])
        _check_edges(edges)
        width = len(edges) + 4
        del rest[0]
    escaped = "%" in text  # else no token needs unescaping
    return kind, edges, check(rest, escaped, width)


def body_from_text(text: str) -> Body:
    """The body a text encodes; a key repeated within it keeps its last line."""
    kind, edges, entries = _parse(text)
    if kind == "summary":
        return SummaryBody({key: SummaryAgg(*values) for key, _ln, values in entries})
    if kind == "histogram":
        return HistogramBody(edges, {key: values for key, _ln, values in entries})
    return CountedKeyBody({key: count for key, _ln, count in entries})


# --- relay merge on text --------------------------------------------------------

def _fold_summary(acc: tuple, new: tuple) -> tuple:
    # operands in _merge_into's order
    return (new[0] + acc[0], new[1] + acc[1], min(new[2], acc[2]), max(new[3], acc[3]))


def _fold_histogram(acc: list, new: list) -> list:
    return [x + y for x, y in zip(acc, new)]


def _fold_counted(acc: int, new: int) -> int:
    return acc + new


_TEXT_MERGE = {
    "summary": (_fold_summary, _summary_line),
    "histogram": (_fold_histogram, _histogram_line),
    "counted-key": (_fold_counted, _counted_line),
}


def _fold_runs(parsed: list[tuple], kind: str, drop_empty: bool) -> list[tuple]:
    """The merged entries of children some of whose keys are shared or
    repeated: each key's run, in producer order, takes each child's last
    line for it; a run one child owns keeps that line (a summary count of 0
    is dropped if ``drop_empty``), and a run of several is folded and
    formatted anew."""
    tagged = [(key, tag, line, values) for tag, (_kind, _edges, entries) in enumerate(parsed)
              for key, line, values in entries]
    tagged.sort(key=itemgetter(0))
    tagged.append((None, -1, "", None))  # closes the last run
    fold, fmt = _TEXT_MERGE[kind]
    out: list[tuple] = []
    append = out.append
    # the run of the current key: the values folded from earlier children
    # (None while one child owns it) and the current child's last line
    runs = iter(tagged)
    key, tag, line, values = next(runs)
    acc = None
    for next_key, next_tag, next_line, next_values in runs:
        if next_key == key:
            if next_tag != tag:
                acc = values if acc is None else fold(acc, values)
                tag = next_tag
            line, values = next_line, next_values
            continue
        if acc is None:
            if not (drop_empty and values[0] == 0):
                append((key, line, values))
        else:
            values = fold(acc, values)
            line = fmt(key, values)
            if line is not None:
                append((key, line, values))
        key, tag, line, values, acc = next_key, next_tag, next_line, next_values, None
    return out


def _spelled_as(text: str, head: str, entries: list[tuple]) -> bool:
    """Whether ``text``, whose checked lines are ``entries`` under the
    header line(s) ``head``, is exactly ``head`` and those lines joined: it
    starts with ``head`` and has no byte more, so no blank line and no
    other spelling of the edges."""
    return text.startswith(head) and len(text) == (
        len(head) + len(entries) + sum(map(len, map(itemgetter(1), entries))))


def merge_texts(texts: list[str], aggregation: str, edges: tuple[float, ...] = (),
                merged: dict | None = None) -> str:
    """A relay's hop: merge child body texts, in producer order, into the
    text of their merged body.

    Every child is checked by :func:`body_from_text`'s parser before any
    kind or edge check, so errors come in the order and with the texts that
    ``merge_all(map(body_from_text, texts), aggregation, edges)`` raises.
    The lines are then stable-sorted once by unescaped key, which is linear
    on children that arrive sorted and still orders one that does not. A
    key that one child sends passes through as that child's line, verbatim
    (a summary line with count 0 is dropped). A key that several children
    send takes each child's last line for it, is folded in producer order
    as :func:`merge_all` folds, and is formatted anew. When no key is
    shared or repeated, the sorted lines are joined as they are; a lone
    child that is that join already (its keys sorted and unique, no summary
    line with count 0, its header the one its aggregation writes, no blank
    line) is returned itself.

    For every body :func:`body_to_text` wrote, the result is byte-identical
    to ``body_to_text(merge_all(...))`` of the same children. A valid but
    non-canonical spelling on a one-owner line (``1.0``, ``%41``) is kept
    as it came, so it reads back as an equal value.

    ``merged``, if given, is a table from texts that earlier merges
    returned to what :func:`_parse` returns for them; the caller owns it
    and passes it to every hop that may get one of those texts as a child.
    A known child is not parsed: an equal text parses to equal entries. A
    merge output is canonical (its keys sorted and unique, no summary line
    with count 0, its header the one its aggregation writes), so a lone
    known child under that same header is returned unchanged. A merge that
    succeeds pops its children from the table and stores its result; one
    that fails stores nothing. The result and the errors are the same with
    or without a table. The table holds the outputs no merge has taken
    yet, so a caller keeps one only while they are in flight: the overlay
    keeps one per stream for the round in flight.
    """
    parsed = []
    fresh: dict = {}  # the children parsed here, by text
    for text in texts:
        known = None if merged is None else merged.get(text)
        if known is None:
            known = fresh.get(text)
            if known is None:
                known = fresh[text] = _parse(text)
        parsed.append(known)
    out = empty_body(aggregation, edges)
    out_edges = out.edges if isinstance(out, HistogramBody) else ()
    for kind, child_edges, _entries in parsed:
        if kind != out.kind:
            raise AggregateKindError(f"cannot merge {out.kind} with {kind}")
        if child_edges != out_edges:
            raise AggregateKindError("histogram edge mismatch")
    head = f"kind={out.kind}"
    if isinstance(out, HistogramBody):
        head += "\n" + _edges_line(out_edges)
    if not fresh and len(parsed) == 1 and texts[0].startswith(head):
        return texts[0]  # a merge output merged alone is itself
    # only a child parsed here may carry a summary line with count 0
    drop_empty = isinstance(out, SummaryBody) and any(
        values[0] == 0 for _kind, _edges, child in fresh.values() for _key, _ln, values in child)
    entries: list[tuple] = []
    for _kind, _edges, child in parsed:
        entries += child
    keys = list(map(itemgetter(0), entries))
    text = None
    if len(set(keys)) != len(keys):
        entries = _fold_runs(parsed, out.kind, drop_empty)
    elif len(texts) == 1 and not drop_empty and keys == sorted(keys) \
            and _spelled_as(texts[0], head, entries):
        text = texts[0]  # a lone child that is already canonical
    else:  # every line passes through
        entries.sort(key=itemgetter(0))
        if drop_empty:
            entries = [entry for entry in entries if entry[2][0] != 0]
    if text is None:
        text = "\n".join([head, *map(itemgetter(1), entries)])
    if merged is not None:
        for child in texts:
            merged.pop(child, None)
        merged[text] = (out.kind, tuple(map(float, out_edges)), entries)
    return text
