from __future__ import annotations

import importlib.resources

import pytest

from melt.topology import ConfigError, DomainSpec, parse_topology

SMALL = """
[domain a]
manager = a-mgr
members = a1,a2,a3
fanout = 2
role = client
fs = knot2

[ring]
order = a
root = skein
"""


def load_testbed_text() -> str:
    ref = importlib.resources.files("melt") / "data" / "testbed.cfg"
    return ref.read_text(encoding="utf-8")


class TestParsing:
    def test_small(self):
        topo = parse_topology(SMALL)
        assert topo.root_node == "skein"
        assert topo.domain("a").member_nodes == ("a1", "a2", "a3")
        assert topo.domain_of_node("a2").domain_id == "a"
        assert topo.filesystems() == ["knot2"]

    def test_testbed_counts(self):
        topo = parse_topology(load_testbed_text())
        sizes = {d.domain_id: len(d.member_nodes) for d in topo.domains}
        assert sizes == {"tait": 16, "conway": 2, "euler": 32,
                         "router": 6, "oss": 8, "mds": 2}
        assert topo.root_node == "skein"
        assert topo.ring_order == ("tait", "conway", "euler", "router", "oss", "mds")
        assert topo.servers("oss") == [f"oss0{i}" for i in range(1, 9)]
        assert topo.filesystems() == ["knot2"]

    def test_testbed_ost_assignment_round_robin(self):
        topo = parse_topology(load_testbed_text())
        oss = topo.domain("oss")
        assert oss.osts_of("oss01") == ("knot2-OST0000",)
        assert oss.osts_of("oss08") == ("knot2-OST0007",)
        mapping = topo.ost_to_server()
        assert mapping["knot2-OST0003"] == "oss04"
        assert len(mapping) == 8

    @pytest.mark.parametrize("members, osts", [(1, 3), (3, 2), (3, 7), (5, 5)])
    def test_osts_of_matches_round_robin_reference(self, members, osts):
        domain = DomainSpec("o", "om", tuple(f"o{i}" for i in range(members)), 2, "oss",
                            ("f",), tuple(f"f-OST{j:04d}" for j in range(osts)))
        for idx, node in enumerate(domain.member_nodes):
            assert domain.osts_of(node) == tuple(
                ost for j, ost in enumerate(domain.osts) if j % members == idx)
            assert domain.position(node) == idx + 1
        assert domain.osts_of("stranger") == ()

    def test_unknown_key_rejected(self):
        bad = SMALL.replace("fanout = 2", "fanout = 2\ncolour = blue")
        with pytest.raises(ConfigError, match="colour"):
            parse_topology(bad)

    def test_missing_ring(self):
        bad = SMALL.split("[ring]")[0]
        with pytest.raises(ConfigError, match="ring"):
            parse_topology(bad)

    def test_an_endpoints_section_is_an_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[endpoints\]"):
            parse_topology(SMALL + "[endpoints]\nskein = skein:9000\n")

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match=":2:"):
            parse_topology("\nstray = line\n")


class TestInvariants:
    def test_duplicate_node_across_domains(self):
        bad = SMALL + "\n[domain b]\nmanager = b-mgr\nmembers = a2\nfanout = 2\nrole = oss\n"
        bad = bad.replace("order = a", "order = a,b")
        with pytest.raises(ConfigError, match="a2"):
            parse_topology(bad)

    def test_ring_missing_domain(self):
        bad = SMALL + "\n[domain b]\nmanager = b-mgr\nmembers = b1\nfanout = 2\nrole = oss\n"
        with pytest.raises(ConfigError, match="permutation"):
            parse_topology(bad)

    def test_fanout_below_two(self):
        with pytest.raises(ConfigError, match="fanout"):
            parse_topology(SMALL.replace("fanout = 2", "fanout = 1"))

    def test_root_hosting_agent(self):
        with pytest.raises(ConfigError, match="root"):
            parse_topology(SMALL.replace("root = skein", "root = a1"))

    def test_osts_on_non_oss(self):
        with pytest.raises(ConfigError, match="osts"):
            parse_topology(SMALL.replace("fs = knot2", "fs = knot2\nosts = x-OST0"))


class TestTreeShape:
    def test_single_member(self):
        d = DomainSpec("d", "mgr", ("n1",), 2, "client")
        assert d.tree_children(0) == [1]
        assert d.tree_children(1) == []
        assert d.tree_parent(1) == 0
        assert d.internal_positions() == []

    def test_euler_depth_three_with_fanout_four(self):
        # hand-derived: 32 members under fanout 4 -> levels 4/16/12
        members = tuple(f"e{i}" for i in range(32))
        d = DomainSpec("euler", "mgr", members, 4, "client")
        assert [d.tree_parent(pos) for pos in (32, 7, 1)] == [7, 1, 0]
        assert d.internal_positions() == list(range(1, 8))
        assert d.tree_children(7) == [29, 30, 31, 32]
        assert d.tree_children(8) == []
        assert d.tree_parent(32) == 7

    def test_small_domain_has_no_relays(self):
        d = DomainSpec("d", "mgr", ("a", "b", "c", "x"), 4, "client")
        assert d.internal_positions() == []
        assert d.tree_parent(4) == 0

    @pytest.mark.parametrize("fanout", range(2, 9))
    def test_internal_positions_match_the_member_scan(self, fanout):
        for n in range(1, 301):
            d = DomainSpec("d", "mgr", tuple(f"n{i}" for i in range(n)), fanout, "client")
            # the reference: every member position that has a heap child
            scan = [p for p in range(1, n + 1) if d.tree_children(p)]
            assert d.internal_positions() == scan, n
