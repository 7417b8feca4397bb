"""Harness-level properties: determinism, oracle equality, accounting, faults."""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt import wire
from melt.agent import AgentConfig, AgentCore
from melt.humanize import parse_human
from melt.meltcli import parse_cli
from melt.meltmon import parse_log_line
from melt.scenario import Fault, SyntheticSource, WorkloadModel, load_scenario, parse_scenario
from melt.simharness import (
    SimCluster, main, message_accounting, oracle_aggregate, resolve_scenario_path,
    run_scenario,
)
from melt.sockethost import SocketHost, serve_overlay
from melt.streams import expected_producers
from melt.topology import parse_topology
from melt.transport import SimChannelEnd, transport_connect

from simutil import (
    ONE_DOMAIN, assert_body_matches_oracle, brute_force_topk, decode_every_frame,
    encode_every_send, random_scenario, random_stream_specs,
)

MI = 1024 * 1024


def dial_clients(pairs) -> SocketHost:
    """One client-side SocketHost; each core dials its endpoint as ``up``."""
    clients = SocketHost()
    for core, endpoint in pairs:
        clients.add_process(core)
        clients.attach_channel(core, "up", transport_connect(endpoint))
        core.start()
    return clients


def load_testbed_spec():
    return load_scenario(resolve_scenario_path("testbed.cfg"))


class TestDeterminism:
    def test_replay_is_byte_identical(self):
        spec_a, spec_b = load_testbed_spec(), load_testbed_spec()
        a = run_scenario(spec_a)
        b = run_scenario(spec_b)
        assert a.transcript_text() == b.transcript_text()
        assert a.logs == b.logs

    def test_different_seed_differs(self):
        spec_a, spec_b = load_testbed_spec(), load_testbed_spec()
        spec_b.seed = spec_a.seed + 1
        assert run_scenario(spec_a).transcript_text() != \
            run_scenario(spec_b).transcript_text()


class TestEmptyWorkload:
    def test_all_rates_zero(self):
        text = ONE_DOMAIN + "[scenario]\nduration = 25\npoll = 5\n"
        result = run_scenario(parse_scenario(text))
        samples = [e for e in result.transcript if e[0] == "sample"]
        assert samples
        for event in samples:
            assert event[7] == 0.0  # every sampled value is zero
        for line in result.logs.get("melt-knot2.log", []):
            _s, _h, pair, values = parse_log_line(line)
            assert pair == ("job", "unassigned")
            assert all(v == 0 for v in values.values())
        assert any("IO_RD_BW=0B/s" in line
                   for line in result.logs["melt-knot2.log"])


class TestScriptedConvergence:
    def test_64_clients_aggregate_write(self):
        members = ",".join(f"c{i:02d}" for i in range(64))
        text = f"""
[domain big]
manager = bigmgr
members = {members}
fanout = 4
role = client
fs = knot2
[ring]
order = big
root = skein
[scenario]
duration = 12
poll = 5
meltmon = off
[workload]
job 0 12 j1 {' '.join(f'c{i:02d}' for i in range(64))}
io 0 12 j1 0 2555904 roundrobin
"""
        spec = parse_scenario(text)
        cluster = SimCluster(spec)
        from simutil import add_driver, create_stream, io_stream_spec
        driver = add_driver(cluster.handle)
        sid = create_stream(cluster.handle, driver, io_stream_spec(
            metrics=("IO_WR_BW",), group_by="none", interval=10))
        driver.subscribe(sid)
        cluster.host.flush(driver)
        cluster.host.pump()
        cluster.advance(10)
        from melt.aggregates import body_from_text, display_value
        body = body_from_text(driver.records[-1].aggregate_body)
        total = display_value(body, "", "IO_WR_BW")
        # 64 clients x 2.4375 MiB/s == 156 MiB/s aggregate
        assert total == pytest.approx(parse_human("156M/s"), rel=1e-9)


class TestOracleEquivalence:
    def test_randomized_scenarios_small_batch(self):
        rng = random.Random(2024)
        for trial in range(6):
            run_one_oracle_scenario(rng, max_leaves=40)


def run_one_oracle_scenario(rng, max_leaves):
    spec = random_scenario(rng, max_leaves=max_leaves)
    cluster = SimCluster(spec)
    from simutil import DriverClient
    driver = DriverClient("oracle")
    cluster.add_client(driver)
    created = []
    for stream_spec in random_stream_specs(rng, spec.topology):
        before = len(driver.created)
        driver.create_stream(stream_spec)
        cluster.host.flush(driver)
        cluster.host.pump()
        if len(driver.created) > before:
            created.append(driver.created[-1])
            driver.subscribe(driver.created[-1])
            cluster.host.flush(driver)
            cluster.host.pump()
    cluster.advance(spec.duration)
    result = cluster.result()

    from melt.aggregates import SummaryBody
    from melt.simharness import leaf_samples
    from melt.aggregates import select_topk
    acct = message_accounting(result)
    n_domains = len(spec.topology.domains)
    checked = 0
    for record in driver.records:
        sid = record.stream_id
        oracle = oracle_aggregate(result, sid, record.round)
        body = assert_body_matches_oracle(record, oracle)
        assert record.actual_contributors == record.expected_contributors
        key = (sid, record.round)
        assert acct.root_ingress[key] == 1
        assert acct.ring_frames[key] == n_domains
        assert all(n == 1 for n in acct.data_per_edge[key].values())
        if isinstance(body, SummaryBody) and body.entries:
            present = sorted({m for _g, m in body.entries})
            metric = present[0]
            k = rng.randint(1, 6)
            got = select_topk(body, k, metric)
            want = brute_force_topk(
                leaf_samples(result, sid, record.round), metric, k)
            assert [g for g, _ in got] == [g for g, _ in want]
            for (_, a), (_, b) in zip(got, want):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
            checked += 1
    assert driver.records, "scenario produced no records"


class TestAccounting:
    def test_testbed_counts(self):
        result = run_scenario(load_testbed_spec())
        acct = message_accounting(result)
        domains = len(result.spec.topology.domains)
        for (sid, rnd), count in acct.ring_frames.items():
            assert count == domains
        for key, count in acct.root_ingress.items():
            assert count == 1
        for (sid, rnd), edges in acct.data_per_edge.items():
            assert all(n == 1 for n in edges.values())
        for (_kind, _key), links in acct.multicast_per_link.items():
            assert all(n == 1 for n in links.values())

    def test_jobmap_multicast_covers_every_tree_edge(self):
        result = run_scenario(load_testbed_spec())
        acct = message_accounting(result)
        jobmaps = [key for key in acct.multicast_per_link if key[0] == "JobMapUpdate"]
        assert jobmaps
        links = acct.multicast_per_link[jobmaps[0]]
        agents = {dst for _src, dst in links if dst.startswith("agent.")}
        assert len(agents) == len(result.spec.topology.all_nodes())


class TestFaultsViaScenario:
    def test_detach_agent_fault(self):
        text = ONE_DOMAIN.replace("members = n1", "members = n1,n2,n3") + """
[scenario]
duration = 20
poll = 5
fault = 15 detach-agent n2
[workload]
job 0 20 j1 n1 n2 n3
io 0 20 j1 1M 0 roundrobin
"""
        result = run_scenario(parse_scenario(text))
        records = result.root_records(stream_id=1)  # meltmon io stream
        by_round = {e[3]: (e[4], e[5]) for e in records}
        assert by_round[max(by_round)] == (3, 2)  # expected, actual after the fault

    def test_fault_event_in_transcript(self):
        text = ONE_DOMAIN + "[scenario]\nduration = 6\nfault = 3 detach-agent n1\n"
        result = run_scenario(parse_scenario(text))
        assert ("fault", 3, "detach-agent", "n1") in result.transcript


class TestMeltsimCli:
    def test_run_with_transcript(self, tmp_path, capsys):
        out = tmp_path / "t.log"
        assert main(["run", "testbed.cfg", "--transcript", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "14 streams" in printed
        text = out.read_text()
        assert text.startswith("send t=0") or "send t=" in text
        assert "counter t=" in text

    def test_missing_scenario(self, capsys):
        assert main(["run", "no-such-file.cfg"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_usage(self):
        assert main([]) == 1
        assert main(["walk"]) == 1

    @pytest.mark.parametrize("line, what", [
        ("duration = ten", "duration"), ("seed = 1.5", "seed"), ("poll = x", "poll"),
        ("fault = x detach-agent n1", "fault time")])
    def test_a_non_integer_scenario_value_is_a_config_error(self, line, what, tmp_path,
                                                            capsys):
        head = ONE_DOMAIN + "[scenario]\nduration = 6\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(head + line + "\n")
        assert main(["run", str(cfg)]) == 1
        lineno, value = head.count("\n") + 1, line.split()[2]
        assert capsys.readouterr().err == (
            f"meltsim: {cfg}:{lineno}: {what} must be an integer, not {value!r}\n")


    @pytest.mark.parametrize("lines, message", [
        (["duration = -5"], "scenario duration must be positive"),
        (["poll = 0"], "poll interval must be >= 1 second"),
        (["fault = 99 detach-agent n1"], "fault time outside scenario duration"),
        (["fault = 2 detach-agent n1", "fault = 4 detach-agent n1"],
         "the agent on n1 is already detached"),
        (["[workload]", "job 0 6 j1 n1", "load n1 0 9 5 5"],
         "workload event ends at 9, after the 6s scenario")],
        ids=["duration", "poll", "fault-time", "detached-twice", "event-end"])
    def test_a_scenario_that_cannot_run_is_refused_at_its_line(self, lines, message,
                                                              tmp_path, capsys):
        head = ONE_DOMAIN + "[scenario]\nduration = 6\n"
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(head + "\n".join(lines) + "\n")
        assert main(["run", str(cfg)]) == 1
        lineno = head.count("\n") + len(lines)
        assert capsys.readouterr().err == f"meltsim: {cfg}:{lineno}: {message}\n"


class TestTcpDeployment:
    def test_external_agent_and_tool_over_sockets(self):
        topo = parse_topology(ONE_DOMAIN)
        host, handle, endpoints = serve_overlay(topo)
        stop = threading.Event()
        server = threading.Thread(
            target=host.serve,
            kwargs=dict(logical_seconds=400, wall_per_tick=0.05, stop=stop),
            daemon=True)
        server.start()
        try:
            from melt.scenario import parse_workload
            script = parse_workload([(1, "job 0 300 j1 n1"),
                                     (2, "io 0 300 j1 1M 0 roundrobin")])
            model = WorkloadModel(topo, script)
            agent = AgentCore(AgentConfig.from_topology(topo, "n1"),
                              SyntheticSource(model, "n1"), topo)
            inv = parse_cli(["clnt=n1", "status", "io", "-delay=1s",
                             "-metrics=IO_RD_BW"])
            from melt.meltcli import CliCore
            core = CliCore(inv, client_name="tcp-test", base_time=0,
                           hostname="skein", pid=1)
            clients = dial_clients([(agent, endpoints["n1"]), (core, endpoints["@root"])])

            deadline = time.time() + 15
            good_frame = None
            while time.time() < deadline and good_frame is None:
                clients.serve(1, wall_per_tick=0.05)
                for frame in core.frames:
                    for row in frame.rows:
                        if row[-1] == pytest.approx(MI, rel=0.01):
                            good_frame = frame
            clients.close()
            assert good_frame is not None, "no frame carried the scripted rate"
        finally:
            stop.set()
            server.join(timeout=5)
            host.close()


class TestFullyDistributedDeployment:
    def test_every_link_over_sockets(self):
        from melt.sockethost import launch_distributed

        text = """
[domain a]
manager = a-mgr
members = a1,a2,a3,a4,a5,a6
fanout = 2
role = client
fs = knot2
[domain b]
manager = b-mgr
members = b1
fanout = 2
role = oss
fs = knot2
osts = knot2-OST0000
[ring]
order = a,b
root = skein
"""
        topo = parse_topology(text)
        cluster = launch_distributed(topo)
        assert len(cluster.hosts) == 5  # root, 2 managers, 2 relays
        cluster.serve(logical_seconds=2000, wall_per_tick=0.05)
        try:
            from melt.scenario import parse_workload
            script = parse_workload([
                (1, "job 0 1500 j1 a1 a2 a3 a4 a5 a6"),
                (2, "io 0 1500 j1 1M 0 roundrobin")])
            model = WorkloadModel(topo, script)

            agents = [AgentCore(AgentConfig.from_topology(topo, node),
                                SyntheticSource(model, node), topo)
                      for node in ("a1", "a3", "a6")]  # relay-hosted, relay-child, leaf

            from melt.meltcli import CliCore
            inv = parse_cli(["fs=knot2", "status", "io", "-delay=1s",
                             "-metrics=IO_RD_BW"])
            core = CliCore(inv, client_name="dist-test", base_time=0,
                           hostname="skein", pid=1)
            clients = dial_clients([(a, cluster.endpoints[a.node_id]) for a in agents]
                                   + [(core, cluster.endpoints["@root"])])

            deadline = time.time() + 20
            three_up = None
            while time.time() < deadline and three_up is None:
                clients.serve(1, wall_per_tick=0.05)
                for record in core.records:
                    if record.actual_contributors == 3:
                        three_up = record
            clients.close()
            assert three_up is not None, "never saw all three agents merged"
            from melt.aggregates import body_from_text
            body = body_from_text(three_up.aggregate_body)
            agg = body.entries[("", "IO_RD_BW")]
            assert agg.count == 3
            assert agg.sum == pytest.approx(3 * MI, rel=0.01)
        finally:
            cluster.stop()


class TestOracleUnderFaults:
    def test_surviving_leaves_match_root_records(self):
        text = ONE_DOMAIN.replace("members = n1", "members = n1,n2,n3,n4") + """
[scenario]
duration = 24
poll = 5
meltmon = off
fault = 13 detach-agent n3
[workload]
job 0 24 j1 n1 n2 n3 n4
io 0 24 j1 1M 0 roundrobin
"""
        spec = parse_scenario(text)
        cluster = SimCluster(spec)
        from simutil import DriverClient
        driver = DriverClient("faulty")
        cluster.add_client(driver)
        from simutil import io_stream_spec
        stream = io_stream_spec(group_by="job", interval=4)
        driver.create_stream(stream)
        cluster.host.flush(driver)
        cluster.host.pump()
        sid = driver.created[-1]
        driver.subscribe(sid)
        cluster.host.flush(driver)
        cluster.host.pump()
        cluster.advance(spec.duration)
        result = cluster.result()

        rounds = [r.round for r in driver.records]
        assert rounds == [4, 8, 12, 16, 20, 24]
        for record in driver.records:
            oracle = oracle_aggregate(result, sid, record.round)
            assert_body_matches_oracle(record, oracle)
        before = [r for r in driver.records if r.round <= 12]
        after = [r for r in driver.records if r.round > 12]
        assert all(r.actual_contributors == 4 for r in before)
        assert all(r.actual_contributors == 3 for r in after)
        assert all(r.expected_contributors == 4 for r in driver.records)

    def test_a_producer_lost_before_its_first_round_still_counts(self):
        """An agent that subscribed and then went away before it ever
        reported counts as one expected contributor at its relay."""
        text = ONE_DOMAIN.replace("members = n1", "members = n1,n2,n3,n4") + """
[scenario]
duration = 10
meltmon = off
fault = 1 detach-agent n4
[workload]
job 0 10 j1 n1 n2 n3 n4
io 0 10 j1 1M 0 roundrobin
"""
        cluster = SimCluster(parse_scenario(text))
        from simutil import DriverClient, io_stream_spec
        driver = cluster.add_client(DriverClient("faulty"))
        driver.create_stream(io_stream_spec(interval=5))
        cluster.host.flush(driver)
        cluster.host.pump()
        sid = driver.created[-1]
        driver.subscribe(sid)
        cluster.host.flush(driver)
        cluster.host.pump()
        cluster.advance(10)
        result = cluster.result()
        assert [(r.round, r.expected_contributors, r.actual_contributors)
                for r in driver.records] == [(5, 4, 3), (10, 4, 3)]
        for record in driver.records:
            assert_body_matches_oracle(record, oracle_aggregate(result, sid, record.round))


def run_with_random_faults(seed: int) -> tuple:
    """A random scenario, 1-3 random streams and a random fault schedule,
    all drawn from ``seed``: 0-3 unclean agent detaches on distinct nodes,
    and with probability 0.4 a dropped ring link. Returns the result, the
    driver's records and (stream id -> round from which it lost a
    producer)."""
    from simutil import DriverClient

    rng = random.Random(seed)
    spec = random_scenario(rng, max_leaves=24)
    streams = random_stream_specs(rng, spec.topology)
    topology = spec.topology
    nodes = rng.sample(topology.all_nodes(), rng.randint(0, min(3, len(topology.all_nodes()))))
    faults = [Fault(rng.randint(1, spec.duration), "detach-agent", node) for node in nodes]
    if rng.random() < 0.4:
        faults.append(Fault(rng.randint(1, spec.duration), "drop-ring-link",
                            rng.choice(topology.ring_order)))
    spec.faults = tuple(faults)
    cluster = SimCluster(spec)
    driver = cluster.add_client(DriverClient("faults"))
    for stream in streams:
        driver.create_stream(stream)
        cluster.host.flush(driver)
        cluster.host.pump()
    for sid in driver.created:
        driver.subscribe(sid)
    cluster.host.flush(driver)
    cluster.host.pump()
    cluster.advance(spec.duration)
    result = cluster.result()

    lost_at = {}  # node -> time its contributions stop reaching the root
    for fault in faults:
        if fault.kind == "detach-agent":
            lost = [fault.subject]
        else:  # data flows up the ring from the first manager
            order = topology.ring_order
            upstream = order[:order.index(fault.subject) + 1]
            lost = [n for d in upstream for n in topology.domain(d).member_nodes]
        for node in lost:
            lost_at[node] = min(lost_at.get(node, fault.time), fault.time)
    first_loss = {}
    for sid, stream in result.streams.items():
        times = [lost_at[n] for n in expected_producers(stream, topology) if n in lost_at]
        if times:
            first_loss[sid] = min(times)
    return result, list(driver.records), first_loss


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**16))
def test_records_under_random_faults_count_every_lost_producer(seed):
    """Over random fault schedules: runs are deterministic, no record
    counts more contributors than it expects, a record that reads complete
    equals the oracle's fold, and a round at or after the loss of one of
    its stream's producers reads ``actual < expected``."""
    result, records, first_loss = run_with_random_faults(seed)
    again, _records, _loss = run_with_random_faults(seed)
    assert result.transcript_text() == again.transcript_text()
    for record in records:
        assert record.actual_contributors <= record.expected_contributors
        if record.actual_contributors == record.expected_contributors:
            assert_body_matches_oracle(
                record, oracle_aggregate(result, record.stream_id, record.round))
        if first_loss.get(record.stream_id, record.round + 1) <= record.round:
            assert record.actual_contributors < record.expected_contributors, record


# --- handed-over messages against decoded frames ------------------------------

TESTBED_FAULTS = {"": "", "detach-agent": "fault = 20 detach-agent tait05\n",
                  "drop-ring-link": "fault = 30 drop-ring-link conway\n"}
CLI_SESSIONS = (("melt-fs", ["-group=job", "fs", "status", "io", "-delay=5s"]),
                ("melt-oss", ["-group=client", "oss=oss03", "top", "io", "-delay=5s"]))


def run_for_comparison(scenario: str) -> tuple:
    """(transcript, root records, client output) of one scenario: testbed.cfg
    with one of its fault variants and two melt sessions, or a random
    topology with a driver subscribed to random streams."""
    from simutil import DriverClient

    if scenario.startswith("random-"):
        rng = random.Random(int(scenario.removeprefix("random-")))
        spec = random_scenario(rng, max_leaves=48)
        cluster = SimCluster(spec)
        driver = cluster.add_client(DriverClient("diff"))
        for stream in random_stream_specs(rng, spec.topology):
            driver.create_stream(stream)
            cluster.host.flush(driver)
            cluster.host.pump()
        for sid in driver.created:
            driver.subscribe(sid)
        cluster.host.flush(driver)
        cluster.host.pump()
        cluster.advance(spec.duration)
        output = [(r.stream_id, r.round, r.aggregate_body) for r in driver.records]
    else:
        with open(resolve_scenario_path("testbed.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace("[workload]", TESTBED_FAULTS[scenario] + "[workload]")
        spec = parse_scenario(text)
        cluster = SimCluster(spec)
        clis = [cluster.add_cli(argv, name=name) for name, argv in CLI_SESSIONS]
        cluster.advance(spec.duration)
        output = [cli.rendered for cli in clis] + [cluster.result().logs]
    result = cluster.result()
    return result.transcript, result.root_records(), output


@pytest.mark.parametrize("scenario", ["", "detach-agent", "drop-ring-link",
                                      "random-5", "random-23"],
                         ids=["testbed", "testbed-detach-agent", "testbed-drop-ring-link",
                              "random-5", "random-23"])
def test_handing_over_messages_changes_no_transcript(scenario, monkeypatch):
    decodes = []
    decode = wire.decode_payload
    monkeypatch.setattr(wire, "decode_payload",
                        lambda code, payload: decodes.append(1) or decode(code, payload))
    handed = run_for_comparison(scenario)
    assert not decodes  # no in-process frame was decoded
    with monkeypatch.context() as decoded:
        decode_every_frame(decoded)
        every_frame = run_for_comparison(scenario)
    assert decodes  # every frame was
    assert handed[0] == every_frame[0]  # transcripts
    assert handed[1] == every_frame[1] and handed[1]  # root records
    assert handed[2] == every_frame[2]  # what the clients saw


@pytest.mark.parametrize("scenario", ["", "detach-agent", "drop-ring-link",
                                      "random-5", "random-23"],
                         ids=["testbed", "testbed-detach-agent", "testbed-drop-ring-link",
                              "random-5", "random-23"])
def test_encoding_a_multicast_once_changes_no_frame_or_transcript(scenario, monkeypatch):
    def run(monkeypatch) -> tuple:
        encodes, frames = [], hashlib.sha256()
        encode, send = wire.encode_message, SimChannelEnd.send

        def sent(self, data, msg=None) -> None:
            frames.update(data)
            send(self, data, msg)

        monkeypatch.setattr(wire, "encode_message",
                            lambda msg: encodes.append(1) or encode(msg))
        monkeypatch.setattr(SimChannelEnd, "send", sent)
        return run_for_comparison(scenario), frames.hexdigest(), len(encodes)

    with monkeypatch.context() as patch:
        once = run(patch)
    with monkeypatch.context() as patch:
        encode_every_send(patch)
        every_send = run(patch)
    assert once[0] == every_send[0]  # transcripts, root records, what the clients saw
    assert once[1] == every_send[1]  # every frame sent, byte for byte
    assert once[2] < every_send[2]


def test_a_testbed_build_encodes_each_multicast_once(monkeypatch):
    """Building testbed.cfg with two melt sessions: 1,876 sends, of which the
    579 that neither repeat the message encoded last nor forward the message
    handed over last are encoded. Each of the 14 stream specs is encoded
    where a message carrying it is made: by meltmon, which asks for it, by
    the root, which multicasts it, and by the root's catch-up for each of the
    two sessions attached later; the managers and relays forward the root's
    frame. A relay acks a producer's Subscribe before it forwards it, so
    with only the last encoded message kept it would encode 36 Subscribes
    more (615)."""
    encodes = Counter()
    encode = wire.encode_message

    def counted(msg) -> bytes:
        encodes[type(msg).__name__] += 1
        return encode(msg)

    monkeypatch.setattr(wire, "encode_message", counted)
    with open(resolve_scenario_path("testbed.cfg"), encoding="utf-8") as fh:
        cluster = SimCluster(parse_scenario(fh.read()))
    for name, argv in CLI_SESSIONS:
        cluster.add_cli(argv, name=name)
    sends = [e for e in cluster.host.transcript if e[0] == "send"]
    assert (sum(encodes.values()), len(sends)) == (579, 1876)
    assert encodes == {"Attach": 69, "AttachAck": 69, "CreateStream": 56, "JobMapUpdate": 3,
                       "StreamCreated": 14, "Subscribe": 184, "SubscribeAck": 184}
