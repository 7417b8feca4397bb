"""Metric catalog: names, classes, units, producing roles, display labels.

The shipped catalog is a representative subset of what a Lustre node can
report. Names beyond the handful grounded in real tool output (IO_RD_BW,
IO_WR_BW, META_OP_RATE, the client average-size/latency metrics) are
artifact-defined plumbing.

Two orderings exist on purpose: :func:`catalog_for_role` sorts by name (its
contract), while display and log output use the curated declaration order
below ("catalog order"), which is why RD_BW precedes CLNT_DIRTY in a log
line even though it sorts after it.
"""

from __future__ import annotations

from dataclasses import dataclass

CLASSES = ("io", "lock", "meta", "rpc", "load", "op", "path", "client")

# classes each agent role can produce
ROLE_CLASSES = {
    "client": ("io", "meta", "rpc", "load"),
    "oss": ("io", "lock", "rpc"),
    "mds": ("lock", "meta", "op", "path", "client"),
    "router": ("rpc", "load"),
}

# default sampling interval per class, seconds (provisional, configurable)
CLASS_INTERVALS = {
    "io": 10, "lock": 10, "meta": 10, "rpc": 10, "load": 30,
    "op": 10, "path": 10, "client": 10,
}


@dataclass(frozen=True)
class MetricDef:
    """One catalog entry.

    ``accumulate`` fixes how a group's value is presented: "sum" adds the
    producers' contributions (bandwidths, op rates, counts), "mean" takes the
    weight-carried average (loads, per-operation sizes and latencies).
    """

    name: str
    metric_class: str
    kind: str               # rate | gauge | count
    unit: str
    label: str
    roles: frozenset[str]
    accumulate: str         # sum | mean


def _m(name, metric_class, kind, unit, label, roles, accumulate) -> MetricDef:
    return MetricDef(name, metric_class, kind, unit, label, frozenset(roles), accumulate)


CATALOG: tuple[MetricDef, ...] = (
    # io
    _m("IO_RD_BW", "io", "rate", "bytes_per_sec", "RD_BW", ("client", "oss"), "sum"),
    _m("IO_WR_BW", "io", "rate", "bytes_per_sec", "WR_BW", ("client", "oss"), "sum"),
    _m("IO_CLNT_NUM", "io", "count", "count", "CLNT_NUM", ("client",), "sum"),
    _m("IO_CLNT_DIRTY", "io", "gauge", "bytes", "CLNT_DIRTY", ("client",), "sum"),
    _m("IO_CLNT_AVG_RD_SZ", "io", "gauge", "bytes", "RD_SZ", ("client",), "mean"),
    _m("IO_CLNT_AVG_WR_SZ", "io", "gauge", "bytes", "WR_SZ", ("client",), "mean"),
    _m("IO_CLNT_AVG_RD_TIME", "io", "gauge", "seconds", "RD_TIME", ("client",), "mean"),
    _m("IO_CLNT_AVG_WR_TIME", "io", "gauge", "seconds", "WR_TIME", ("client",), "mean"),
    # lock
    _m("LOCK_GRANT_RATE", "lock", "rate", "ops_per_sec", "GRANT_RATE", ("oss", "mds"), "sum"),
    _m("LOCK_CANCEL_RATE", "lock", "rate", "ops_per_sec", "CANCEL_RATE", ("oss", "mds"), "sum"),
    _m("LOCK_COUNT", "lock", "gauge", "count", "LOCKS", ("oss", "mds"), "sum"),
    # meta
    _m("META_OP_RATE", "meta", "rate", "ops_per_sec", "MD_RATE", ("client", "mds"), "sum"),
    _m("META_OPEN_RATE", "meta", "rate", "ops_per_sec", "OPEN_RATE", ("client", "mds"), "sum"),
    _m("META_CLOSE_RATE", "meta", "rate", "ops_per_sec", "CLOSE_RATE", ("client", "mds"), "sum"),
    _m("META_MKDIR_RATE", "meta", "rate", "ops_per_sec", "MKDIR_RATE", ("client", "mds"), "sum"),
    _m("META_UNLINK_RATE", "meta", "rate", "ops_per_sec", "UNLINK_RATE", ("client", "mds"), "sum"),
    _m("META_STAT_RATE", "meta", "rate", "ops_per_sec", "STAT_RATE", ("client", "mds"), "sum"),
    # rpc
    _m("RPC_REQ_RATE", "rpc", "rate", "ops_per_sec", "REQ_RATE", ("client", "oss", "mds", "router"), "sum"),
    _m("RPC_AVG_WAIT", "rpc", "gauge", "seconds", "AVG_WAIT", ("client", "oss", "mds", "router"), "mean"),
    # load
    _m("LOAD_CPU_PCT", "load", "gauge", "percent", "CPU_PCT", ("client", "router"), "mean"),
    _m("LOAD_MEM_PCT", "load", "gauge", "percent", "MEM_PCT", ("client", "router"), "mean"),
    # counted-key event classes (mds rankings)
    _m("CLIENT_COUNT", "client", "count", "count", "CLIENTS", ("mds",), "sum"),
    _m("OP_COUNT", "op", "count", "count", "OPS", ("mds",), "sum"),
    _m("PATH_COUNT", "path", "count", "count", "PATHS", ("mds",), "sum"),
)

BY_NAME: dict[str, MetricDef] = {d.name: d for d in CATALOG}

# raw cumulative counter names as they appear in stats files, mapped to the
# derived rate metric they feed
RAW_TO_RATE = {
    "IO_RD_BYTES": "IO_RD_BW",
    "IO_WR_BYTES": "IO_WR_BW",
    "META_OPS": "META_OP_RATE",
    "META_OPEN": "META_OPEN_RATE",
    "META_CLOSE": "META_CLOSE_RATE",
    "META_MKDIR": "META_MKDIR_RATE",
    "META_UNLINK": "META_UNLINK_RATE",
    "META_STAT": "META_STAT_RATE",
    "LOCK_GRANTS": "LOCK_GRANT_RATE",
    "LOCK_CANCELS": "LOCK_CANCEL_RATE",
    "RPC_REQS": "RPC_REQ_RATE",
}
RATE_TO_RAW = {v: k for k, v in RAW_TO_RATE.items()}

# (numerator counter, denominator counter) behind each windowed average
AVG_SOURCES = {
    "IO_CLNT_AVG_RD_SZ": ("IO_RD_BYTES", "IO_RD_OPS"),
    "IO_CLNT_AVG_WR_SZ": ("IO_WR_BYTES", "IO_WR_OPS"),
    "IO_CLNT_AVG_RD_TIME": ("IO_RD_TIME_SUM", "IO_RD_OPS"),
    "IO_CLNT_AVG_WR_TIME": ("IO_WR_TIME_SUM", "IO_WR_OPS"),
    "RPC_AVG_WAIT": ("RPC_WAIT_SUM", "RPC_REQS"),
}

# metric that carries each counted-key event class
COUNTED_CLASS_METRIC = {"op": "OP_COUNT", "path": "PATH_COUNT", "client": "CLIENT_COUNT"}
COUNTED_CLASSES = frozenset(COUNTED_CLASS_METRIC)


class UnknownMetricError(KeyError):
    pass


def metric(name: str) -> MetricDef:
    try:
        return BY_NAME[name]
    except KeyError:
        raise UnknownMetricError(name) from None


def catalog_for_role(role: str) -> list[MetricDef]:
    """All metrics a node of the given Lustre role can produce, name-sorted."""
    if role not in ROLE_CLASSES:
        raise ValueError(f"unknown lustre role {role!r}")
    classes = ROLE_CLASSES[role]
    defs = [d for d in CATALOG if d.metric_class in classes and role in d.roles]
    return sorted(defs, key=lambda d: d.name)


def metrics_for_class(metric_class: str) -> list[MetricDef]:
    """Catalog-order metrics of one class."""
    if metric_class not in CLASSES:
        raise ValueError(f"unknown metric class {metric_class!r}")
    return [d for d in CATALOG if d.metric_class == metric_class]


def export_table() -> str:
    """The catalog as a plain-text table (used by docs and -metrics validation)."""
    rows = [("NAME", "CLASS", "KIND", "UNIT", "LABEL", "ROLES")]
    for d in CATALOG:
        rows.append((d.name, d.metric_class, d.kind, d.unit, d.label,
                     ",".join(sorted(d.roles))))
    widths = [max(len(r[i]) for r in rows) for i in range(6)]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
