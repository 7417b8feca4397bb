from __future__ import annotations

import pytest

from melt import catalog
from melt.topology import LUSTRE_ROLES


def test_names_unique_and_classed():
    names = [d.name for d in catalog.CATALOG]
    assert len(names) == len(set(names))
    for d in catalog.CATALOG:
        assert d.metric_class in catalog.CLASSES
        assert d.label


def role_metrics(role: str) -> list:
    """The catalog entries a node of one Lustre role produces: those of a
    class the role has that name the role."""
    return [d for d in catalog.CATALOG
            if d.metric_class in catalog.ROLE_CLASSES[role] and role in d.roles]


def test_role_class_sets():
    assert set(catalog.ROLE_CLASSES) == set(LUSTRE_ROLES)
    oss = {d.name for d in role_metrics("oss")}
    assert "IO_RD_BW" in oss
    assert "META_OP_RATE" not in oss
    assert {catalog.metric(n).metric_class for n in oss} <= {"io", "lock", "rpc"}

    clnt = {d.metric_class for d in role_metrics("client")}
    assert "load" in clnt

    router = role_metrics("router")
    assert router
    assert {d.metric_class for d in router} <= {"rpc", "load"}

    mds = {d.metric_class for d in role_metrics("mds")}
    assert mds == {"lock", "meta", "op", "path", "client"}


def test_display_labels():
    assert catalog.metric("IO_RD_BW").label == "RD_BW"
    assert catalog.metric("IO_WR_BW").label == "WR_BW"
    assert catalog.metric("META_OP_RATE").label == "MD_RATE"
    assert catalog.metric("IO_CLNT_AVG_RD_SZ").label == "RD_SZ"
    assert catalog.metric("IO_CLNT_AVG_RD_TIME").label == "RD_TIME"


def test_io_catalog_order_matches_log_key_order():
    io_names = [d.name for d in catalog.metrics_for_class("io")]
    assert io_names[:6] == [
        "IO_RD_BW", "IO_WR_BW", "IO_CLNT_NUM", "IO_CLNT_DIRTY",
        "IO_CLNT_AVG_RD_SZ", "IO_CLNT_AVG_WR_SZ",
    ]


def test_raw_counter_mapping_consistent():
    for raw, rate in catalog.RAW_TO_RATE.items():
        assert catalog.metric(rate).kind == "rate"
        assert raw != rate
    known_counters = set(catalog.RAW_TO_RATE) | {
        "IO_RD_OPS", "IO_WR_OPS", "IO_RD_TIME_SUM", "IO_WR_TIME_SUM", "RPC_WAIT_SUM"}
    for avg, (num, den) in catalog.AVG_SOURCES.items():
        assert catalog.metric(avg).accumulate == "mean"
        assert num in known_counters
        assert den in known_counters


def test_unknown_lookups():
    with pytest.raises(catalog.UnknownMetricError):
        catalog.metric("IO_NOPE")
    with pytest.raises(ValueError):
        catalog.metrics_for_class("tape-robot")
