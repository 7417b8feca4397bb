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


def test_role_class_sets():
    oss = {d.name for d in catalog.catalog_for_role("oss")}
    assert "IO_RD_BW" in oss
    assert "META_OP_RATE" not in oss
    assert {catalog.metric(n).metric_class for n in oss} <= {"io", "lock", "rpc"}

    clnt = {d.metric_class for d in catalog.catalog_for_role("client")}
    assert "load" in clnt

    router = catalog.catalog_for_role("router")
    assert router
    assert {d.metric_class for d in router} <= {"rpc", "load"}

    mds = {d.metric_class for d in catalog.catalog_for_role("mds")}
    assert mds == {"lock", "meta", "op", "path", "client"}


def test_catalog_for_role_sorted_by_name():
    for role in LUSTRE_ROLES:
        names = [d.name for d in catalog.catalog_for_role(role)]
        assert names == sorted(names)


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
        catalog.catalog_for_role("tape-robot")


def test_export_table_lists_everything():
    table = catalog.export_table()
    for d in catalog.CATALOG:
        assert d.name in table
    assert table.splitlines()[0].split() == ["NAME", "CLASS", "KIND", "UNIT", "LABEL", "ROLES"]
