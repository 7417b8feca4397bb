"""Overlay semantics: trees, ring relay, multicast, buffering, faults."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import aggregates, catalog, overlay, wire
from melt.aggregates import body_from_text, body_to_text
from melt.overlay import (MergedBodies, RelayProcess, Stream, attach_point, overlay_links,
                          overlay_processes)
from melt.scenario import WorkloadModel
from melt.simnet import SimHost
from melt.streams import StreamSpec
from melt.topology import parse_topology

from simutil import (
    FIVE_DOMAINS, ONE_DOMAIN, add_driver, attach_agents, create_stream,
    data_sends, deep_domain, io_stream_spec, make_sim, run_ticks,
)


class TestBuildAndAttach:
    def test_smallest_topology(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        assert set(handle.managers) == {"solo"}
        assert handle.relays == {}
        proc, link = handle.attach_point("n1")
        assert proc is handle.managers["solo"] and link == "a1"

    def test_attach_unknown_node(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        from melt.agent import AgentConfig, AgentCore, IdleSource
        ghost = AgentCore(AgentConfig("ghost", "solo", "client"), IdleSource())
        with pytest.raises(KeyError, match="ghost"):
            handle.attach_agent(ghost)

    def test_double_attach(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        from melt.agent import AgentConfig, AgentCore, IdleSource
        dup = AgentCore(AgentConfig.from_topology(handle.topology, "n1"), IdleSource())
        with pytest.raises(ValueError, match="already attached"):
            handle.attach_agent(dup)

    def test_deep_domain_has_relays(self):
        host, handle, model = make_sim(deep_domain(32, fanout=4))
        # positions 1..7 are internal with 32 members under fanout 4
        assert len(handle.relays) == 7
        proc, _ = handle.attach_point("n000")  # position 1 is internal
        assert proc.pid == "rel.n000"
        proc, _ = handle.attach_point("n031")  # position 32 hangs under position 7
        assert proc.pid == "rel.n006"


class TestStreams:
    def test_ids_monotone_and_persist(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid1 = create_stream(handle, client, io_stream_spec(name="a"))
        sid2 = create_stream(handle, client, io_stream_spec(name="b"))
        assert (sid1, sid2) == (1, 2)

        # creating client detaches; specs survive and a new consumer sees them
        handle.detach_client("driver")
        late = add_driver(handle, "late")
        assert set(late.specs) == {1, 2}
        assert late.specs[1].name == "a"

    def test_idempotent_by_name(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        client = add_driver(handle)
        sid1 = create_stream(handle, client, io_stream_spec(name="same"))
        sid2 = create_stream(handle, client, io_stream_spec(name="same"))
        assert sid1 == sid2

    def test_bad_specs_rejected(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        client = add_driver(handle)
        client.create_stream(StreamSpec(0, "zero", "fs=knot2", ("IO_RD_BW",),
                                        interval_secs=0))
        client.create_stream(StreamSpec(0, "nometric", "fs=knot2", ("IO_FAKE",)))
        client.create_stream(io_stream_spec(name="nofs", target="fs=knot9"))
        host.flush(client)
        host.pump()
        codes = [e.code for e in client.errors]
        assert codes == ["bad-spec", "bad-spec", "unknown-target"]
        assert "knot9" in client.errors[2].text

    def test_agent_attaching_late_receives_spec_and_produces(self):
        host, handle, model = make_sim(
            ONE_DOMAIN, ("job 0 50 j1 n1", "io 0 50 j1 1M 0 roundrobin"))
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(interval=2))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 4)
        # before any agent attaches the ring still relays (empty) rounds
        assert [(r.round, r.actual_contributors) for r in client.records] == [(2, 0), (4, 0)]

        attach_agents(handle, model)
        agent = handle.agents["n1"]
        assert sid in agent.specs  # replayed at attach
        run_ticks(host, 5, 2)
        last = client.records[-1]
        assert (last.round, last.actual_contributors) == (6, 1)
        body = body_from_text(last.aggregate_body)
        value = body.entries[("", "IO_RD_BW")].sum
        assert value == pytest.approx(1024 * 1024, rel=1e-9)


class TestGatherMerge:
    def make_relay(self):
        relay = RelayProcess("rel.x", "x")
        relay.streams[1] = Stream(io_stream_spec(interval=10))
        for link in ("a1", "a2"):
            relay.bind_link(link, "agent")
            relay.handle_producer_subscribe(link, wire.Subscribe(1, "agent-producer"))
        return relay

    def body_text(self, count, total, lo, hi):
        from melt.aggregates import SummaryAgg, SummaryBody
        return body_to_text(SummaryBody({("", "IO_RD_BW"): SummaryAgg(count, total, lo, hi)}))

    def test_single_child_identity_merge(self):
        relay = self.make_relay()
        relay.remove_child("a2", clean=True)
        body = self.body_text(2, 10, 1, 9)
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, body))
        sends = [m for l, m in relay.outbox if isinstance(m, wire.Data)]
        assert len(sends) == 1
        assert body_from_text(sends[0].aggregate_body).entries == body_from_text(body).entries

    def test_a_lone_child_s_record_goes_on_as_itself_when_nothing_changes_it(self):
        relay = self.make_relay()
        relay.remove_child("a2", clean=True)
        record = wire.Data(1, 10, 10, 1, 1, self.body_text(2, 10, 1, 9))
        relay.on_message("a1", record)
        (sent,) = [m for _l, m in relay.outbox if isinstance(m, wire.Data)]
        assert sent is record
        # a body out of key order is merged into a new record
        relay.outbox.clear()
        unsorted = "kind=summary\ng b IO_RD_BW 1 2 2 2\ng a IO_RD_BW 1 5 5 5"
        relay.on_message("a1", wire.Data(1, 20, 10, 1, 1, unsorted))
        (sent,) = [m for _l, m in relay.outbox if isinstance(m, wire.Data)]
        assert sent == wire.Data(1, 20, 10, 1, 1, body_to_text(body_from_text(unsorted)))

    def test_a_lone_child_s_record_is_not_forwarded_when_a_closed_link_still_counts(self):
        relay = self.make_relay()
        for link in ("a1", "a2"):
            relay.on_message(link, wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_link_closed("a2")
        relay.outbox.clear()
        record = wire.Data(1, 20, 10, 1, 1, self.body_text(2, 10, 1, 9))
        relay.on_message("a1", record)
        (sent,) = [m for _l, m in relay.outbox if isinstance(m, wire.Data)]
        assert sent == wire.Data(1, 20, 10, 2, 1, record.aggregate_body)

    def test_two_child_merge_matches_flat_fold(self):
        relay = self.make_relay()
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(2, 10, 1, 9)))
        assert not [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        relay.on_message("a2", wire.Data(1, 10, 10, 1, 1, self.body_text(3, 6, 2, 4)))
        sends = [m for l, m in relay.outbox if isinstance(m, wire.Data)]
        assert len(sends) == 1
        merged = body_from_text(sends[0].aggregate_body).entries[("", "IO_RD_BW")]
        assert (merged.count, merged.sum, merged.min, merged.max) == (5, 16, 1, 9)
        assert sends[0].expected_contributors == 2
        assert sends[0].actual_contributors == 2

    def test_timeout_emits_partial(self):
        relay = self.make_relay()
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_tick(29)  # within 2x interval: still waiting
        assert not [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        relay.on_tick(30)  # 10 + 2*10
        sends = [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        assert len(sends) == 1
        assert sends[0].actual_contributors == 1
        assert sends[0].expected_contributors == 2  # a2 never reported: it counts as one
        assert ("round-timeout", "rel.x", 1, 10) in relay.notes

    def test_a_round_in_flight_completes_when_its_last_producer_link_closes(self):
        relay = self.make_relay()
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_link_closed("a1")
        assert not [m for _, m in relay.outbox if isinstance(m, wire.Data)]  # a2 may send it
        relay.on_link_closed("a2")  # no live producer link is left to wait for
        (sent,) = [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        assert (sent.round, sent.expected_contributors, sent.actual_contributors) == (10, 2, 1)
        assert not [n for n in relay.notes if n[0] == "round-timeout"]

    def test_a_contribution_to_a_timed_out_round_is_dropped(self):
        relay = self.make_relay()
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_tick(30)
        relay.outbox.clear()
        relay.on_message("a2", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        assert relay.outbox == []
        assert relay.notes[-1] == ("late-contribution-dropped", "rel.x", 1, 10, "a2")

    def test_a_subscribe_for_an_unknown_stream_is_dropped(self):
        relay = self.make_relay()
        relay.bind_link("c1", "relay")
        relay.outbox.clear()
        relay.on_message("c1", wire.Subscribe(999, "agent-producer"))
        assert relay.outbox == [] and 999 not in relay.streams
        assert relay.notes == [("subscribe-for-unknown-stream", "rel.x", 999)]

    def test_a_relay_whose_producers_all_detached_still_emits_empty_rounds(self):
        relay = self.make_relay()
        relay.streams[2] = Stream(io_stream_spec(interval=10))  # no child ever produced it
        for link in ("a1", "a2"):
            relay.remove_child(link, clean=True)
        relay.on_tick(10)
        sends = [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        assert [(m.stream_id, m.round, m.expected_contributors, m.actual_contributors)
                for m in sends] == [(1, 10, 0, 0)]

    def assert_merge_fault(self, bad, reason):
        relay = self.make_relay()
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_message("a2", wire.Data(1, 10, 10, 1, 1, bad))
        msgs = [m for _, m in relay.outbox]
        assert any(isinstance(m, wire.Error) and m.code == "merge-fault" for m in msgs)
        assert not any(isinstance(m, wire.Data) for m in msgs)
        (note,) = [n for n in relay.notes if n[0] == "merge-fault"]
        assert note[1:4] == (relay.pid, 1, 10) and reason in note[4]
        # the next round merges as usual
        relay.outbox.clear()
        for link in ("a1", "a2"):
            relay.on_message(link, wire.Data(1, 20, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        assert [m.round for _, m in relay.outbox if isinstance(m, wire.Data)] == [20]

    def test_merge_kind_mismatch_drops_round_with_error(self):
        self.assert_merge_fault("kind=counted-key\nc k 3", "cannot merge summary with counted-key")

    @pytest.mark.parametrize("bad, reason", [
        ("kind=summary\ng a b x 1 1 1", "bad summary line"),
        ("kind=summary\ng a b 1 nan 1 1", "bad summary line"),
        ("kind=summary\ng a b 1 1 inf 1", "bad summary line"),
        ("kind=histogram\nedges 1 2\nh a b 1 2.5 3", "bad histogram line"),
        ("kind=histogram\nedges 1 x\nh a b 1 2 3", "bad histogram line"),
        ("kind=counted-key\nc k 1.5", "bad counted-key line"),
    ], ids=["summary-word", "summary-nan", "summary-inf", "histogram-count",
            "histogram-edge", "counted-float"])
    def test_bad_number_drops_round_with_error(self, bad, reason):
        self.assert_merge_fault(bad, reason)

    def test_bad_line_first_at_a_higher_hop_is_a_merge_fault_there(self):
        low, high = self.make_relay(), self.make_relay()
        low.merged_bodies = high.merged_bodies = MergedBodies()
        good = "kind=summary\ng a M 1 5 5 5\ng b M 1 2 2 2"
        bad = good + "\ng c M 1 nan 1 1"
        for link in ("a1", "a2"):
            low.on_message(link, wire.Data(1, 10, 10, 1, 1, good))
        (sent,) = [m for _, m in low.outbox if isinstance(m, wire.Data)]
        table = high.merged_bodies.table(1, 10)
        assert sent.round == 10 and list(table) == [sent.aggregate_body]
        # the higher hop knows the lower hop's body, then gets one it never saw
        high.on_message("a1", wire.Data(1, 10, 10, 2, 2, sent.aggregate_body))
        high.on_message("a2", wire.Data(1, 10, 10, 1, 1, bad))
        (note,) = [n for n in high.notes if n[0] == "merge-fault"]
        assert note[1:4] == (high.pid, 1, 10) and "bad summary line 'g c M 1 nan" in note[4]
        assert not any(isinstance(m, wire.Data) for _, m in high.outbox)
        # the failed merge took nothing from the table and stored nothing
        assert list(table) == [sent.aggregate_body]
        # it stays a fault at every hop of the round that gets it
        low.outbox.clear()
        for link in ("a1", "a2"):
            low.on_message(link, wire.Data(1, 20, 10, 1, 1, bad))
        assert [n[3] for n in low.notes if n[0] == "merge-fault"] == [20]

    def test_nonmonotone_round_dropped(self):
        relay = self.make_relay()
        relay.remove_child("a2", clean=True)
        relay.on_message("a1", wire.Data(1, 20, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        relay.on_message("a1", wire.Data(1, 10, 10, 1, 1, self.body_text(1, 5, 5, 5)))
        sends = [m for _, m in relay.outbox if isinstance(m, wire.Data)]
        assert [m.round for m in sends] == [20]


class ScriptedProducer(overlay.ProcessCore):
    """Attaches as an agent and produces every stream it hears of; sends
    only the records a test gives it."""

    def start(self) -> None:
        self.emit("up", wire.Attach(self.node_id, "solo", "agent", "client"))

    def on_message(self, link: str, msg) -> None:
        if isinstance(msg, wire.CreateStream):
            self.emit("up", wire.Subscribe(msg.spec.stream_id, "agent-producer"))


def test_merge_fault_reaches_the_consumer_before_the_next_round():
    host, handle, _model = make_sim(ONE_DOMAIN)
    producer = handle.attach_agent(ScriptedProducer("agent.n1", "n1"))
    client = add_driver(handle)
    sid = create_stream(handle, client, io_stream_spec(interval=1))
    client.subscribe(sid)
    host.flush(client)
    host.pump()
    good = "kind=summary\ng tait.7 IO_RD_BW 2 10 4 6"
    for rnd, body in ((1, "kind=summary\ng tait.7 IO_RD_BW 2 x 4 6"), (2, good)):
        producer.emit("up", wire.Data(sid, rnd, 1, 1, 1, body))
        host.flush(producer)
        host.pump()
    # the manager dropped round 1; its fault reached the root over the ring
    # and went on to the stream's consumer, ahead of round 2's record
    (error,) = client.errors
    assert error.code == "merge-fault"
    assert error.text.startswith(f"stream {sid} round 1: bad summary line")
    assert overlay.RoundFault.parse(error.text)[:2] == (sid, 1)
    to_client = [e[4:6] for e in host.transcript
                 if e[0] == "send" and e[3] == client.pid and e[4] in ("Error", "Data")]
    assert to_client == [("Error", ""), ("Data", sid)]
    assert [(r.round, r.aggregate_body) for r in client.records] == [(2, good)]


def test_round_fault_text_reads_back_and_other_texts_name_none():
    fault = overlay.RoundFault(3, 7, "bad summary line 'g a: b'\nmore")
    assert overlay.RoundFault.parse(fault.text()) == fault
    for text in ("", "no stream 3", "stream x round 7: r", "stream 3 round 7",
                 "stream 3 round 7 : r"):
        assert overlay.RoundFault.parse(text) is None


class TestRing:
    def setup_ring(self, interval=1):
        host, handle, model = make_sim(
            FIVE_DOMAINS,
            ("job 0 50 j1 n0 n1 n2 n3 n4", "io 0 50 j1 1M 0 roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(interval=interval))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        return host, handle, client, sid

    def test_five_ring_frames_one_root_ingress(self):
        host, handle, client, sid = self.setup_ring()
        host.transcript.clear()
        run_ticks(host, 1, 3)
        ring_pids = {f"mgr.d{i}" for i in range(5)} | {"root"}
        for rnd in (1, 2, 3):
            ring = [e for e in data_sends(host.transcript, sid)
                    if e[2] in ring_pids and e[3] in ring_pids and e[6] == rnd]
            assert len(ring) == 5
            root_in = [e for e in data_sends(host.transcript, sid, dst="root")
                       if e[6] == rnd]
            assert len(root_in) == 1
            assert root_in[0][8:] == (5, 5)  # expected, actual

    def test_root_merge_covers_all_domains(self):
        host, handle, client, sid = self.setup_ring()
        run_ticks(host, 1, 2)
        record = client.records[-1]
        body = body_from_text(record.aggregate_body)
        agg = body.entries[("", "IO_RD_BW")]
        assert agg.count == 5
        assert agg.sum == pytest.approx(5 * 1024 * 1024, rel=1e-9)

    def test_detach_fault_reduces_actual_not_expected(self):
        host, handle, client, sid = self.setup_ring()
        run_ticks(host, 1, 2)
        handle.detach_agent("n2", clean=False)
        run_ticks(host, 3, 2)
        last = client.records[-1]
        assert last.expected_contributors == 5
        assert last.actual_contributors == 4

    def test_clean_detach_reduces_both(self):
        host, handle, client, sid = self.setup_ring()
        run_ticks(host, 1, 2)
        handle.detach_agent("n2", clean=True)
        run_ticks(host, 3, 2)
        last = client.records[-1]
        assert last.expected_contributors == 4
        assert last.actual_contributors == 4

    def test_ring_link_drop_flags_missing_domains(self):
        host, handle, client, sid = self.setup_ring()
        run_ticks(host, 1, 2)
        host.sever_link("mgr.d1", "up")
        run_ticks(host, 3, 3)
        last = client.records[-1]
        assert last.expected_contributors == 5
        assert last.actual_contributors == 3
        rounds = [r.round for r in client.records]
        assert rounds == sorted(rounds)


class TestMulticast:
    def test_jobmap_reaches_every_agent_exactly_once(self):
        host, handle, model = make_sim(FIVE_DOMAINS)
        attach_agents(handle, model)
        client = add_driver(handle)
        host.transcript.clear()
        client.emit("up", wire.JobMapUpdate(3, (("j9", ("n0", "n4")),)))
        host.flush(client)
        host.pump()
        for node, agent in handle.agents.items():
            assert agent.jobmap_epoch == 3
        deliveries = [e for e in host.transcript
                      if e[0] == "send" and e[4] == "JobMapUpdate"]
        per_link = {}
        for e in deliveries:
            per_link[(e[2], e[3])] = per_link.get((e[2], e[3]), 0) + 1
        assert all(count == 1 for count in per_link.values())
        to_agents = [e for e in deliveries if e[3].startswith("agent.")]
        assert len(to_agents) == 5

    def test_stale_epoch_ignored(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        client.emit("up", wire.JobMapUpdate(7, ()))
        client.emit("up", wire.JobMapUpdate(5, (("j", ("n1",)),)))
        host.flush(client)
        host.pump()
        assert handle.agents["n1"].jobmap_epoch == 7

    def test_setrate_scoped_by_producing_domain(self):
        topo_text = FIVE_DOMAINS.replace(
            "[domain d4]\nmanager = m4\nmembers = n4\nfanout = 2\nrole = client\nfs = knot2",
            "[domain d4]\nmanager = m4\nmembers = n4\nfanout = 2\nrole = oss\nfs = knot2\n"
            "osts = knot2-OST0000")
        host, handle, model = make_sim(topo_text)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="oss-stream", target="oss=n4", metrics=("IO_RD_BW",), interval=10))
        host.transcript.clear()
        client.set_rate(sid, ("IO_RD_BW",), 2)
        host.flush(client)
        host.pump()
        assert handle.agents["n4"].stream_interval(sid) == 2
        # client-domain agents never see the rate change on their tree links
        tree_sends = [e for e in host.transcript
                      if e[0] == "send" and e[4] == "SetRate" and e[3].startswith("agent.")]
        assert [e[3] for e in tree_sends] == ["agent.n4"]

    def test_multicast_with_no_agents_is_quiet(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        client = add_driver(handle)
        client.emit("up", wire.JobMapUpdate(1, ()))
        host.flush(client)
        host.pump()  # no error, nothing delivered to agents


class TestBuffering:
    def test_drop_oldest_capacity_16(self):
        host, handle, model = make_sim(
            ONE_DOMAIN, ("job 0 45 j1 n1", "io 0 45 j1 1M 0 roundrobin"))
        attach_agents(handle, model)
        creator = add_driver(handle, "creator")
        sid = create_stream(handle, creator, io_stream_spec(interval=1, capacity=16))
        handle.detach_client("creator")

        run_ticks(host, 1, 40)
        consumer = add_driver(handle, "consumer")
        consumer.subscribe(sid)
        host.flush(consumer)
        host.pump()
        assert [r.round for r in consumer.records] == list(range(25, 41))

        run_ticks(host, 41, 2)
        assert [r.round for r in consumer.records] == list(range(25, 43))

    def test_pass_through_when_subscribed(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(interval=1, capacity=16))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 5)
        assert handle.root.streams[sid].buffer == type(handle.root.streams[sid].buffer)()
        assert [r.round for r in client.records] == [1, 2, 3, 4, 5]


class TestScaling:
    @pytest.mark.parametrize("leaves", [8, 64])
    def test_root_ingress_independent_of_leaf_count(self, leaves):
        host, handle, model = make_sim(
            deep_domain(leaves),
            (f"job 0 20 j1 " + " ".join(f"n{i:03d}" for i in range(leaves)),
             "io 0 20 j1 1M 0 roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(interval=1))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        host.transcript.clear()
        run_ticks(host, 1, 2)
        for rnd in (1, 2):
            root_in = [e for e in data_sends(host.transcript, sid, dst="root") if e[6] == rnd]
            assert len(root_in) == 1
            assert root_in[0][8:] == (leaves, leaves)


class TestCrossDomainGrouping:
    def test_shared_job_groups_merge_once_at_root(self):
        # one job spanning two domains: its group merges, never duplicates
        host, handle, model = make_sim(
            FIVE_DOMAINS,
            ("job 0 50 tait.1113 n0 n3", "io 0 50 tait.1113 2M 0 roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            group_by="job", interval=2))
        client.emit("up", wire.JobMapUpdate(1, (("tait.1113", ("n0", "n3")),)))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 2)
        record = client.records[-1]
        body = body_from_text(record.aggregate_body)
        # the two in-job domains fold into one key, never a duplicate; idle
        # clients still contribute (empty) rounds and count as contributors
        assert {g for g, _m in body.entries} == {"tait.1113"}
        agg = body.entries[("tait.1113", "IO_RD_BW")]
        assert agg.count == 2
        assert agg.sum == pytest.approx(2 * 2 * 1024 * 1024, rel=1e-9)
        assert record.actual_contributors == 5
        assert record.expected_contributors == 5


def reference_attach_point(topology, node):
    """The attach rule written out with ``.index`` and explicit heap arithmetic."""
    domain = topology.domain_of_node(node)
    pos = domain.member_nodes.index(node) + 1
    if domain.fanout * pos + 1 <= len(domain.member_nodes):
        return f"rel.{node}", f"a{pos}"
    parent = (pos - 1) // domain.fanout
    owner = f"mgr.{domain.domain_id}" if parent == 0 else f"rel.{domain.member_nodes[parent - 1]}"
    return owner, f"a{pos}"


@pytest.mark.parametrize("fanout", [2, 4])
@pytest.mark.parametrize("members", [1, 5, 32, 4097])
def test_attach_point_matches_index_reference(members, fanout):
    topology = parse_topology(deep_domain(members, fanout))
    for node in topology.all_nodes():
        assert attach_point(topology, node) == reference_attach_point(topology, node)


def test_graph_places_every_attach_point_and_link_end():
    topology = parse_topology(deep_domain(32, fanout=4))
    procs = overlay_processes(topology)
    assert list(procs)[:2] == ["root", "mgr.big"]
    for pid, link, peer, peer_link, attach in overlay_links(topology):
        assert pid in procs and peer in procs
        assert procs[pid].node_id == attach.node_id
    for node in topology.all_nodes():
        assert attach_point(topology, node)[0] in procs


class TestMergedBodies:
    """The gather nodes of one host parse each body once per round."""

    def run_rounds(self, monkeypatch, shared: bool, rounds: int = 3):
        nodes = " ".join(f"n{i:03d}" for i in range(64))
        host, handle, model = make_sim(
            deep_domain(64), (f"job 0 20 j1 {nodes}", "io 0 20 j1 1M 2M roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            metrics=("IO_RD_BW", "IO_WR_BW"), group_by="client"))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        if not shared:
            for proc in (handle.root, *handle.managers.values(), *handle.relays.values()):
                proc.merged_bodies = None
        checked: Counter = Counter()  # line -> times it was split and checked
        carried: set = set()  # every line some hop merged
        held: list = []  # bodies in the table as each merge starts
        check, merge = aggregates._ENTRIES["summary"], overlay.merge_texts

        def counting_check(lines, *args):
            checked.update(lines)
            return check(lines, *args)

        def carrying_merge(texts, *args):
            carried.update(ln for text in texts for ln in text.split("\n")[1:] if ln)
            held.append(len(args[-1]) if args[-1] is not None else 0)
            return merge(texts, *args)

        monkeypatch.setitem(aggregates._ENTRIES, "summary", counting_check)
        monkeypatch.setattr(overlay, "merge_texts", carrying_merge)
        per_round = []
        for t in range(1, rounds + 1):
            checked.clear()
            carried.clear()
            held.clear()
            run_ticks(host, t, 1)
            per_round.append((dict(checked), set(carried), list(held)))
            if shared:  # the root has merged the round, so nothing is held
                assert handle.root.merged_bodies.rounds == {}
        return per_round, [r.aggregate_body for r in client.records]

    def test_each_line_is_checked_once_per_host_and_round(self, monkeypatch):
        per_round, bodies = self.run_rounds(monkeypatch, shared=True)
        for checked, carried, held in per_round:
            # the rates are steady, so every round carries the same lines,
            # and every round checks them again
            assert len(carried) == 128 and per_round[0][1] == carried
            assert set(checked) == carried and set(checked.values()) == {1}
            # a parent takes its children's bodies, so the root, the last of
            # the 17 hops, finds only the manager's body in the table
            assert len(held) == 17 and held[-1] == 1 and max(held) < 16
        alone, alone_bodies = self.run_rounds(monkeypatch, shared=False)
        assert alone_bodies == bodies and len(bodies) == 3
        for checked, carried, held in alone:
            assert max(checked.values()) == 4  # 2 relays, the manager and the root

    def test_build_overlay_shares_one_memo_per_host(self):
        host, handle, model = make_sim(deep_domain(32))
        nodes = [handle.root, *handle.managers.values(), *handle.relays.values()]
        assert len({id(proc.merged_bodies) for proc in nodes}) == 1
        assert isinstance(nodes[0].merged_bodies, MergedBodies)
        assert all(proc.merged_bodies is None
                   for proc in overlay_processes(handle.topology).values())

    def test_a_newer_round_replaces_the_older_one(self):
        memo = MergedBodies()
        first = memo.table(1, 10)
        assert memo.table(1, 10) is first
        other = memo.table(2, 5)  # streams keep their own round
        second = memo.table(1, 11)
        assert second is not first and memo.table(2, 5) is other
        assert memo.table(1, 10) is None  # a late round goes without
        assert memo.table(1, 11) is second
        assert memo.rounds == {1: (11, second), 2: (5, other)}
        memo.release(1, 10)  # not the round held
        memo.release(2, 5)
        assert memo.rounds == {1: (11, second)}


# --- the producer-link cache ----------------------------------------------------


def reference_producers(node, stream):
    """``GatherNode.producers`` worked out from the node's links on every
    call, with no cache."""
    links = []
    if node.ring_prev_link is not None and node.ring_prev_produces:
        links.append(node.ring_prev_link)
    links.extend(l for l in node.tree_children if l in (stream.children or ()))
    return links, [l for l in links if l not in node.dead_links]


class UncachedRelay(RelayProcess):
    producers = reference_producers


CACHE_LINKS = ("c1", "c2", "a3", "a4", "ring_prev")
CACHE_STEPS = st.one_of(
    st.tuples(st.just("attach"), st.sampled_from(CACHE_LINKS),
              st.sampled_from(("relay", "agent", "manager", "session-root"))),
    st.tuples(st.just("subscribe"), st.sampled_from(CACHE_LINKS), st.sampled_from((1, 2))),
    st.tuples(st.just("detach"), st.sampled_from(CACHE_LINKS)),
    st.tuples(st.just("closed"), st.sampled_from(CACHE_LINKS)),
    st.tuples(st.just("data"), st.sampled_from(CACHE_LINKS), st.sampled_from((1, 2)),
              st.integers(1, 4)),
)


def apply_cache_step(node, step) -> None:
    kind, link, *args = step
    if kind == "attach":  # a tree child or a ring predecessor, by its role
        node.on_message(link, wire.Attach(f"n.{link}", "big", args[0], "client"))
    elif kind == "subscribe":
        node.on_message(link, wire.Subscribe(args[0], "agent-producer"))
    elif kind == "detach":
        node.on_message(link, wire.Detach(f"n.{link}"))
    elif kind == "closed":
        node.on_link_closed(link)
    else:
        sid, rnd = args
        node.on_message(link, wire.Data(sid, rnd, 10, 1, 1, "kind=summary\ng j1 IO_RD_BW 1 5 5 5"))


@settings(max_examples=300, deadline=None)
@given(st.lists(CACHE_STEPS, max_size=40))
def test_cached_producer_links_match_a_cache_free_reference(steps):
    """Through any sequence of tree and ring attaches, producer Subscribes,
    clean Detaches, closed links and Data, the cached producer and live
    links equal the ones worked out anew, and the rounds a node completes,
    everything it sends and notes, equal those of a node with no cache."""
    cached, reference = RelayProcess("rel.x", "x"), UncachedRelay("rel.x", "x")
    for node in (cached, reference):
        for sid in (1, 2):
            node.streams[sid] = Stream(io_stream_spec(name=f"s/{sid}", interval=10))
    for step in steps:
        for node in (cached, reference):
            apply_cache_step(node, step)
        for stream in cached.streams.values():
            assert cached.producers(stream) == reference_producers(cached, stream)
        assert cached.outbox == reference.outbox and cached.notes == reference.notes


def test_a_steady_client_round_redoes_nothing_that_only_the_topology_changes(monkeypatch):
    """In rounds 2-5 of a 64-agent client domain, only the processes that
    send or note something are flushed, each once: the agents, the 15
    relays, the manager and the root. No agent looks a metric up in the
    catalog, and every gather node keeps the producer links it worked out
    in round 1."""
    nodes = " ".join(f"n{i:03d}" for i in range(64))
    host, handle, model = make_sim(
        deep_domain(64), (f"job 0 20 j1 {nodes}", "io 0 20 j1 1M 2M roundrobin"))
    attach_agents(handle, model)
    client = add_driver(handle)
    sid = create_stream(handle, client, io_stream_spec(
        metrics=("IO_RD_BW", "IO_WR_BW"), group_by="client"))
    client.subscribe(sid)
    host.flush(client)
    host.pump()
    run_ticks(host, 1, 1)
    flushed: list = []  # (pid, whether it had something to send or note)
    flush, metric = SimHost.flush, catalog.metric
    looked_up: list = []
    gathers = [handle.root, *handle.managers.values(), *handle.relays.values()]
    cached = [node.streams[sid].links for node in gathers]
    assert all(links is not None for links in cached)
    monkeypatch.setattr(SimHost, "flush", lambda self, proc: flushed.append(
        (proc.pid, bool(proc.outbox or proc.notes))) or flush(self, proc))
    monkeypatch.setattr(catalog, "metric", lambda name: looked_up.append(name) or metric(name))
    for t in range(2, 6):
        flushed.clear()
        run_ticks(host, t, 1)
        assert len(flushed) == 64 + 15 + 1 + 1
        assert len({pid for pid, _ in flushed}) == len(flushed)
        assert all(had for _pid, had in flushed)
    assert looked_up == []
    assert all(node.streams[sid].links is links for node, links in zip(gathers, cached))
    assert [r.round for r in client.records] == [1, 2, 3, 4, 5]
    assert {(r.expected_contributors, r.actual_contributors) for r in client.records} == {(64, 64)}


def test_a_steady_client_round_computes_one_snapshot_per_class(monkeypatch):
    """In rounds 2-5 of a 64-agent client domain, every agent asks for its
    snapshot once, and one snapshot is computed per class of clients: the
    other 31 nodes of one job, the 32 of a second job, and the one node with
    a load event of its own."""
    nodes = [f"n{i:03d}" for i in range(64)]
    host, handle, model = make_sim(deep_domain(64), (
        f"job 0 20 j1 {' '.join(nodes[:32])}", f"job 0 20 j2 {' '.join(nodes[32:])}",
        "io 0 20 j1 1M 2M roundrobin", "io 0 20 j2 3M 0 roundrobin",
        "load n005 0 20 50 20"))
    attach_agents(handle, model)
    client = add_driver(handle)
    sid = create_stream(handle, client, io_stream_spec(
        metrics=("IO_RD_BW", "IO_WR_BW"), group_by="client"))
    client.subscribe(sid)
    host.flush(client)
    host.pump()
    run_ticks(host, 1, 1)
    asked: list = []
    computed: list = []
    snapshot, compute = WorkloadModel.snapshot, WorkloadModel._client_snapshot
    monkeypatch.setattr(WorkloadModel, "snapshot", lambda self, node, *args: (
        asked.append(node) or snapshot(self, node, *args)))
    monkeypatch.setattr(WorkloadModel, "_client_snapshot", lambda self, node, *args: (
        computed.append(node) or compute(self, node, *args)))
    for t in range(2, 6):
        asked.clear()
        computed.clear()
        run_ticks(host, t, 1)
        assert sorted(asked) == nodes
        assert len(computed) == 3 and "n005" in computed
        assert len({model.class_of[node] for node in computed}) == 3
    assert [r.round for r in client.records] == [1, 2, 3, 4, 5]
