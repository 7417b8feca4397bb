"""Mergeable per-round aggregates and their text encoding.

Three body kinds travel inside Data records: summary (count/sum/min/max per
group and metric), histogram (fixed-edge bucket tallies per group and
metric), and counted-key (plain event tallies keyed by client, operation, or
path). All three merge associatively and commutatively with an identity, so
any tree of partial merges equals the flat fold of the underlying samples
(exactly for counts and extrema, within float-sum reassociation for sums).

Top-k selection happens only at the presentation point; the full key set
always travels the tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .catalog import metric as metric_def


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
    return token.replace("%", "%25").replace(" ", "%20").replace("\n", "%0A")


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


@dataclass
class HistogramBody:
    kind = "histogram"
    edges: tuple[float, ...] = ()
    entries: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if any(a >= b for a, b in zip(self.edges, self.edges[1:])):
            raise AggregateError("histogram edges must be strictly increasing")

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

def body_to_text(body: Body) -> str:
    """Deterministic line encoding carried inside Data records."""
    lines = [f"kind={body.kind}"]
    if isinstance(body, SummaryBody):
        for (group, metric), agg in sorted(body.entries.items()):
            if agg.empty:
                continue
            lines.append(f"g {_esc(group)} {_esc(metric)} {_num(agg.count)} "
                         f"{_num(agg.sum)} {_num(agg.min)} {_num(agg.max)}")
    elif isinstance(body, HistogramBody):
        lines.append("edges " + " ".join(_num(e) for e in body.edges))
        for (group, metric), counts in sorted(body.entries.items()):
            lines.append(f"h {_esc(group)} {_esc(metric)} " + " ".join(str(c) for c in counts))
    else:
        for key, count in sorted(body.counts.items()):
            lines.append(f"c {_esc(key)} {count}")
    return "\n".join(lines)


def body_from_text(text: str) -> Body:
    lines = text.split("\n")
    if not lines or not lines[0].startswith("kind="):
        raise AggregateError("aggregate body missing kind line")
    kind = lines[0][len("kind="):]
    rest = [ln for ln in lines[1:] if ln]

    if kind == "summary":
        body = SummaryBody()
        for ln in rest:
            parts = ln.split(" ")
            if len(parts) != 7 or parts[0] != "g":
                raise AggregateError(f"bad summary line {ln!r}")
            group, metric = _unesc(parts[1]), _unesc(parts[2])
            body.entries[(group, metric)] = SummaryAgg(
                float(parts[3]), float(parts[4]), float(parts[5]), float(parts[6]))
        return body

    if kind == "histogram":
        if not rest or not rest[0].startswith("edges"):
            raise AggregateError("histogram body missing edges line")
        edge_parts = rest[0].split(" ")[1:]
        body = HistogramBody(edges=tuple(float(e) for e in edge_parts))
        for ln in rest[1:]:
            parts = ln.split(" ")
            if len(parts) != 3 + len(body.edges) + 1 or parts[0] != "h":
                raise AggregateError(f"bad histogram line {ln!r}")
            body.entries[(_unesc(parts[1]), _unesc(parts[2]))] = [int(c) for c in parts[3:]]
        return body

    if kind == "counted-key":
        body = CountedKeyBody()
        for ln in rest:
            parts = ln.split(" ")
            if len(parts) != 3 or parts[0] != "c":
                raise AggregateError(f"bad counted-key line {ln!r}")
            body.counts[_unesc(parts[1])] = int(parts[2])
        return body

    raise AggregateError(f"unknown aggregate kind {kind!r}")
