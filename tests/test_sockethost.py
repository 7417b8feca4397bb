"""The socket backend of the host loop, as the binaries use it."""

from __future__ import annotations

import logging
import os
import select
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import pytest

from melt import agent, aggregates, meltcli, meltmon, overlay, sockethost, wire
from melt.overlay import ClientCore, GatherNode, MergedBodies, attach_point
from melt.simharness import resolve_scenario_path
from melt.sockethost import SocketHost, dial_core, launch_distributed, serve_overlay
from melt.streams import StreamSpec
from melt.topology import load_topology, parse_topology
from melt.transport import parse_endpoint
from melt.wire import (MAGIC, MAX_PAYLOAD, TYPE_CODES, VERSION, Attach, AttachAck,
                       CreateStream, Data, Error, FrameDecoder, JobMapUpdate, StreamCreated,
                       Subscribe, SubscribeAck, decode_all, decode_frame, encode_message)

from simutil import ONE_DOMAIN, received


def test_dialed_host_drains_more_than_64k_in_one_step():
    server = socket.create_server(("127.0.0.1", 0))
    core = ClientCore("client.bulk", "bulk")
    host, up = dial_core(core, f"127.0.0.1:{server.getsockname()[1]}")
    conn, _addr = server.accept()
    frames = [encode_message(Data(1, rnd, 1, 1, 1, "x" * 200)) for rnd in range(1, 1001)]
    payload = b"".join(frames)
    assert len(payload) > 1 << 16
    writer = threading.Thread(target=conn.sendall, args=(payload,))
    writer.start()
    try:
        host.serve(1, wall_per_tick=0.5)
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert [r.round for r in core.records] == list(range(1, 1001))
        assert received(host)[core.pid] == 1000
    finally:
        host.close()
        conn.close()
        server.close()


def test_notes_go_to_the_log_not_a_transcript(caplog):
    host = SocketHost()
    core = ClientCore("client.probe", "probe")
    host.add_process(core)
    core.note("probe-note", core.pid)
    with caplog.at_level(logging.DEBUG, logger="melt.sockethost"):
        host.tick(1)
    host.close()
    assert "('probe-note', 1, 'client.probe')" in caplog.text
    assert host.transcript == []


def _closing_peer():
    """A listener that accepts one connection and closes it at once."""
    server = socket.create_server(("127.0.0.1", 0))

    def accept_and_close():
        conn, _addr = server.accept()
        conn.close()
        server.close()

    threading.Thread(target=accept_and_close, daemon=True).start()
    return f"127.0.0.1:{server.getsockname()[1]}"


@pytest.mark.parametrize("prog", ["melt", "meltagent", "meltmon"])
def test_main_exits_2_when_up_link_closes(prog, tmp_path, capsys):
    endpoint = _closing_peer()
    if prog == "melt":
        code = meltcli.main([f"--connect={endpoint}", "fs", "status", "io"])
    elif prog == "meltagent":
        code = agent.main(["--node=n1", "--domain=solo", "--role=client",
                           f"--connect={endpoint}"])
    else:
        config = tmp_path / "overlay.cfg"
        config.write_text(ONE_DOMAIN)
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("")
        code = meltmon.main([f"--connect={endpoint}", f"--config={config}",
                             f"--jobmap=file:{jobs}", f"--log-dir={tmp_path}"])
    assert code == 2
    assert f"{prog}: connection lost" in capsys.readouterr().err


def test_melt_writes_a_merge_fault_to_stderr_and_keeps_its_session(capsys):
    server = socket.create_server(("127.0.0.1", 0))
    endpoint = f"127.0.0.1:{server.getsockname()[1]}"
    fault = Error("merge-fault", "stream 1 round 3: bad summary line 'g x'")
    after_fault = []

    def root():
        conn, _addr = server.accept()
        with conn:
            conn.settimeout(5.0)
            conn.recv(1 << 16)  # the Attach
            conn.sendall(encode_message(AttachAck(1)) + encode_message(fault))
            after_fault.extend(decode_all(conn.recv(1 << 16))[0])
        server.close()

    thread = threading.Thread(target=root, daemon=True)
    thread.start()
    code = meltcli.main([f"--connect={endpoint}", "fs", "status", "io"])
    thread.join(timeout=5)
    assert not thread.is_alive()
    # after the fault melt went on to plan its session, until the root left
    assert [type(m) for m in after_fault] == [CreateStream]
    assert capsys.readouterr().err.splitlines() == [
        f"melt: merge-fault: {fault.text}", f"melt: connection lost: {endpoint}"]
    assert code == 2


NOWHERE = "--connect=127.0.0.1:9"  # never dialed: every case fails before


@pytest.mark.parametrize("prog, args, reason", [
    ("meltmon", ["--config={good}", "--jobmap=file:{jobs}", "--poll=0s"],
     "bad --poll value '0s'"),
    ("meltmon", ["--config={missing}", "--jobmap=file:{jobs}"], "No such file"),
    ("meltmon", ["--config={bad}", "--jobmap=file:{jobs}"], "unknown section [nonsense]"),
    ("meltmon", ["--config={good}", "--jobmap=file:{jobs}", "--pol=5s"],
     "unknown option '--pol'"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--config={missing}"],
     "No such file"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--config={bad}"],
     "unknown section [nonsense]"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--sorce=stats:{jobs}"],
     "unknown option '--sorce'"),
    ("melt", ["fs", "status", "io", "-delay=0s"], "bad duration '0s'"),
], ids=["meltmon-poll-0s", "meltmon-config-missing", "meltmon-config-malformed",
        "meltmon-unknown-flag", "meltagent-config-missing", "meltagent-config-malformed",
        "meltagent-unknown-flag", "melt-delay-0s"])
def test_bad_input_exits_1_with_reason(prog, args, reason, tmp_path, capsys):
    paths = {"good": tmp_path / "overlay.cfg", "bad": tmp_path / "bad.cfg",
             "missing": tmp_path / "absent.cfg", "jobs": tmp_path / "jobs.txt"}
    paths["good"].write_text(ONE_DOMAIN)
    paths["bad"].write_text("[nonsense]\nx = 1\n")
    paths["jobs"].write_text("")
    argv = [NOWHERE] + [arg.format(**paths) for arg in args]
    main = {"melt": meltcli.main, "meltagent": agent.main, "meltmon": meltmon.main}[prog]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{prog}: ") and err.count("\n") == 1
    assert reason in err


def attach_over_tcp(hosts, endpoint: str, attach: Attach) -> tuple[str, str]:
    """Send ``attach`` over a new connection to ``endpoint``, pump ``hosts``
    until it is acked, and return the (pid, link) where it landed."""
    before = {key for host in hosts for key in host.links}
    sock = socket.create_connection(parse_endpoint(endpoint), timeout=5.0)
    try:
        sock.sendall(encode_message(attach))
        sock.setblocking(False)
        decoder, got = FrameDecoder(), []
        deadline = time.monotonic() + 5.0
        while not any(isinstance(m, AttachAck) for m in got):
            assert time.monotonic() < deadline, f"no AttachAck for {attach}"
            for host in hosts:
                host.pump()
            try:
                got += decoder.feed(sock.recv(1 << 16))
            except BlockingIOError:
                pass
        (landed,) = {key for host in hosts for key in host.links} - before
        return landed
    finally:
        sock.close()


def test_both_socket_deployments_attach_each_node_at_the_same_process():
    topology = load_topology(resolve_scenario_path("testbed.cfg"))
    host, _handle, endpoints = serve_overlay(topology)
    cluster = launch_distributed(topology)
    try:
        # the cluster binds its own ring and tree links first, each at both ends
        deadline = time.monotonic() + 5.0
        while sum(len(each.links) for each in cluster.hosts.values()) < 2 * len(
                overlay.overlay_links(topology)):
            assert time.monotonic() < deadline, "the cluster did not bind its links"
            for each in cluster.hosts.values():
                each.pump()
        for procs, hosts, ends in ((host.by_pid, [host], endpoints),
                                   (cluster.cores, list(cluster.hosts.values()),
                                    cluster.endpoints)):
            for node in topology.all_nodes():
                domain = topology.domain_of_node(node)
                pid, link = attach_over_tcp(hosts, ends[node], Attach(
                    node, domain.domain_id, "agent", domain.lustre_role))
                assert pid == attach_point(topology, node)[0]
                assert procs[pid].agent_children[link] == node
            pid, link = attach_over_tcp(hosts, ends["@root"],
                                        Attach("probe", "-", "session-client", "-"))
            assert pid == "root" and procs[pid].client_links[link] == "probe"
    finally:
        host.close()
        cluster.stop()


def test_only_serve_overlay_shares_merged_bodies():
    topology = load_topology(resolve_scenario_path("testbed.cfg"))
    host, _handle, _endpoints = serve_overlay(topology)
    cluster = launch_distributed(topology)
    try:
        served = [p for p in host.by_pid.values() if isinstance(p, GatherNode)]
        assert len(served) == len(cluster.cores)
        assert len({id(p.merged_bodies) for p in served}) == 1
        assert isinstance(served[0].merged_bodies, MergedBodies)
        # one host per process: nothing to share, so each parses its children
        assert all(core.merged_bodies is None for core in cluster.cores.values())
    finally:
        host.close()
        cluster.stop()


class RelayRig:
    """``serve_overlay`` for one small client domain, driven over raw
    loopback sockets: a session consumer at ``@root`` and a producer that
    attaches to the deepest relay as a relay child."""

    def __init__(self) -> None:
        names = ",".join(f"c{i:03d}" for i in range(24))
        topology = parse_topology(
            f"[domain big]\nmanager = bigmgr\nmembers = {names}\nfanout = 4\n"
            "role = client\nfs = knot2\n[ring]\norder = big\nroot = skein\n")
        self.host, self.handle, self.endpoints = serve_overlay(topology)
        self.decoders: dict[socket.socket, FrameDecoder] = {}
        self.cons = self.connect("@root")
        self.send(self.cons, Attach("test-consumer", "-", "session-client", "-"))
        self.send(self.cons, CreateStream(StreamSpec(
            0, "test/relay", "fs=knot2", ("IO_RD_BW",), "summary", (), "job", 1, 1024)))
        (created,) = self.pump_until(self.cons, StreamCreated)
        self.sid = created.stream_id
        self.send(self.cons, Subscribe(self.sid, "up-consumer"))
        self.pump_until(self.cons, SubscribeAck)
        domain = topology.domain("big")
        deepest = domain.internal_positions()[-1]
        leaf = domain.node_at(domain.tree_children(deepest)[0])
        self.prod = self.connect(domain.node_at(deepest))
        self.send(self.prod, Attach(leaf, "big", "relay", "client"))
        self.pump_until(self.prod, CreateStream)
        self.send(self.prod, Subscribe(self.sid, "agent-producer"))
        self.host.pump()

    def connect(self, node: str) -> socket.socket:
        sock = socket.create_connection(parse_endpoint(self.endpoints[node]), timeout=5.0)
        sock.setblocking(False)
        self.decoders[sock] = FrameDecoder()
        return sock

    @staticmethod
    def send(sock: socket.socket, msg) -> None:
        sock.sendall(encode_message(msg))

    def pump_until(self, sock: socket.socket, want, deadline_s: float = 5.0) -> list:
        """Pump the host until ``sock`` receives a ``want``; return those."""
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            self.host.pump()
            try:
                data = sock.recv(1 << 20)
            except BlockingIOError:
                continue
            assert data, "the overlay closed a test connection"
            got = [m for m in self.decoders[sock].feed(data) if isinstance(m, want)]
            if got:
                return got
        raise TimeoutError(f"no {want.__name__} from the overlay")

    def produce(self, rnd: int, body: str) -> None:
        self.send(self.prod, Data(self.sid, rnd, 1, 1, 1, body))

    def close(self) -> None:
        for sock in self.decoders:
            sock.close()
        self.host.close()


GOOD_BODY = "kind=summary\ng tait.7 IO_RD_BW 2 10 4 6"


def pump_until_logged(rig: RelayRig, caplog, text: str) -> None:
    with caplog.at_level(logging.DEBUG, logger="melt.sockethost"):
        deadline = time.monotonic() + 5.0
        while text not in caplog.text and time.monotonic() < deadline:
            rig.host.pump()
    assert text in caplog.text


def test_a_faulty_peer_with_unread_junk_reads_the_error_then_eof():
    rig = RelayRig()
    bad = socket.create_connection(parse_endpoint(rig.endpoints["@root"]), timeout=None)

    def write_junk():
        try:
            bad.sendall(b"BADMAGIC" + bytes(1 << 20))
        except OSError:
            pass  # the overlay may close the link before it has read it all

    writer = threading.Thread(target=write_junk)
    writer.start()
    try:
        received, eof = b"", False
        deadline = time.monotonic() + 10.0
        while not eof and time.monotonic() < deadline:
            rig.host.pump()
            if select.select([bad], [], [], 0.001)[0]:
                chunk = bad.recv(1 << 16)  # a reset raises ConnectionResetError
                received += chunk
                eof = chunk == b""
        assert eof
        (error,), rest = decode_all(received)
        assert error.code == "link-fault" and "bad magic b'BA'" in error.text and rest == b""
        writer.join(timeout=10.0)
        assert not writer.is_alive()
        bad.close()
        deadline = time.monotonic() + 5.0
        while rig.host.lingering and time.monotonic() < deadline:
            rig.host.pump()
        assert not rig.host.lingering  # closed at the peer's EOF
        rig.produce(1, GOOD_BODY)
        (record,) = rig.pump_until(rig.cons, Data)
        assert (record.round, record.aggregate_body) == (1, GOOD_BODY)
    finally:
        bad.close()
        writer.join(timeout=10.0)
        rig.close()


def test_a_half_closed_socket_is_closed_at_the_linger_deadline(monkeypatch):
    monkeypatch.setattr(sockethost, "LINGER_SECONDS", 0.0)
    rig = RelayRig()
    bad = rig.connect("@root")
    try:
        bad.sendall(b"BADMAGIC")
        deadline = time.monotonic() + 5.0
        while not rig.host.lingering and time.monotonic() < deadline:
            rig.host.pump()
        (channel,) = rig.host.lingering
        rig.host.pump()  # the peer never closes: the deadline has passed
        assert not rig.host.lingering and channel.closed
    finally:
        rig.close()


def test_a_link_released_twice_is_closed_and_no_longer_lingers():
    server = socket.create_server(("127.0.0.1", 0))
    core = ClientCore("client.twice", "twice")
    host, up = dial_core(core, f"127.0.0.1:{server.getsockname()[1]}")
    conn, _addr = server.accept()
    try:
        state = host.links[(core.pid, "up")]
        host.release(state)  # open: half-closed, lingering
        assert host.lingering == {up: host.lingering[up]} and up.closed
        conn.settimeout(5.0)
        received = b""
        while chunk := conn.recv(1 << 16):  # what the core sent, then the FIN
            received += chunk
        assert [type(m) for m in decode_all(received)[0]] == [Attach]
        host.release(state)  # again, as when its process is dropped later
        assert host.lingering == {}
        host.pump()
    finally:
        conn.close()
        server.close()
        host.close()


def test_bad_body_is_a_merge_fault_and_the_next_round_arrives():
    rig = RelayRig()
    try:
        rig.produce(1, "kind=summary\ng tait.7 IO_RD_BW 2 x 4 6")
        (error,) = rig.pump_until(rig.cons, Error)
        assert error.code == "merge-fault"
        assert error.text.startswith(f"stream {rig.sid} round 1: bad summary line")
        rig.produce(2, GOOD_BODY)
        (record,) = rig.pump_until(rig.cons, Data)
        assert (record.round, record.aggregate_body) == (2, GOOD_BODY)
    finally:
        rig.close()


def test_a_relay_chain_checks_each_line_once_per_round(monkeypatch):
    checked: Counter = Counter()
    hops = []
    check, merge = aggregates._ENTRIES["summary"], overlay.merge_texts

    def counting_check(lines, *args):
        checked.update(lines)
        return check(lines, *args)

    def counting_merge(texts, *args):
        hops.append(texts)
        return merge(texts, *args)

    monkeypatch.setitem(aggregates._ENTRIES, "summary", counting_check)
    monkeypatch.setattr(overlay, "merge_texts", counting_merge)
    rig = RelayRig()
    body = GOOD_BODY + "\ng tait.8 IO_RD_BW 1 3 3 3"
    try:
        for rnd in (1, 2, 3):
            checked.clear()
            hops.clear()
            rig.produce(rnd, body)
            (record,) = rig.pump_until(rig.cons, Data)
            assert (record.round, record.aggregate_body) == (rnd, body)
            # two relays, the manager and the root each merged the body;
            # the host checked each of its lines once
            assert hops == [[body]] * 4
            assert checked == Counter(body.split("\n")[1:])
    finally:
        rig.close()


def test_a_relay_chain_decodes_a_record_once_and_encodes_it_once(monkeypatch):
    rig = RelayRig()
    pumping = False
    calls: Counter = Counter()
    pump, decode, encode = rig.host.pump, wire.decode_payload, wire.encode_message
    in_process = [state for state in rig.host.links.values() if state.peer is not None]

    def host_pump():
        nonlocal pumping
        pumping = True
        try:
            pump()
        finally:
            pumping = False

    def counting_decode(code, payload):
        calls["decode"] += pumping
        return decode(code, payload)

    def counting_encode(msg):
        calls["encode"] += pumping
        return encode(msg)

    rig.host.pump = host_pump
    monkeypatch.setattr(wire, "decode_payload", counting_decode)
    monkeypatch.setattr(wire, "encode_message", counting_encode)
    try:
        for rnd in (1, 2, 3):
            calls.clear()
            body = GOOD_BODY + f"\ng tait.8 IO_RD_BW 1 {rnd} {rnd} {rnd}"
            rig.produce(rnd, body)
            (record,) = rig.pump_until(rig.cons, Data)
            assert (record.round, record.aggregate_body) == (rnd, body)
            # the frame off the producer's socket is decoded; each of the four
            # hops is a lone child's, so it forwards the record it got: the
            # first hop encodes it, and the three in-process hops hand the
            # message over with that frame; no in-process link has built a decoder
            assert calls == {"decode": 1, "encode": 1}
            assert [state for state in in_process if state.decoder is not None] == []
    finally:
        rig.close()


# a Data payload as protocol version 1 spelled it, key=value lines with the body escaped
V1_DATA = (b"stream_id=0\nround=1\nwindow_secs=1\nexpected_contributors=1\n"
           b"actual_contributors=1\naggregate_body=kind=summary\\ng tait.7 IO_RD_BW 2 2 2 2\n")


@pytest.mark.parametrize("frame, reason", [
    (b"BADMAGIC", "bad magic b'BA'"),
    (MAGIC + bytes((VERSION, TYPE_CODES[Data])) + (MAX_PAYLOAD + 1).to_bytes(4, "big"),
     f"frame announces {MAX_PAYLOAD + 1} payload bytes, more than {MAX_PAYLOAD}"),
    (MAGIC + bytes((1, TYPE_CODES[Data])) + len(V1_DATA).to_bytes(4, "big") + V1_DATA,
     "unsupported protocol version 1"),
], ids=["bad-magic", "oversized-length", "v1-data"])
def test_bad_frame_closes_only_its_link(frame, reason, caplog):
    rig = RelayRig()
    try:
        bad = rig.connect("@root")
        bad.sendall(frame)
        pump_until_logged(rig, caplog, "'link-fault'")
        assert reason in caplog.text
        # the overlay tells the faulty peer why, then closes its link
        bad.settimeout(5.0)
        received = b""
        while chunk := bad.recv(1 << 16):
            received += chunk
        (error,), rest = decode_all(received)
        assert error == Error("link-fault", reason) and rest == b""
        rig.produce(1, GOOD_BODY)
        (record,) = rig.pump_until(rig.cons, Data)
        assert (record.round, record.aggregate_body) == (1, GOOD_BODY)
    finally:
        rig.close()


def gather_links(rig: RelayRig) -> dict:
    """pid -> (ring predecessor link, producer links of the rig's stream)
    of every gather node."""
    return {pid: (proc.ring_prev_link, proc.producer_links(rig.sid))
            for pid, proc in rig.host.by_pid.items() if isinstance(proc, GatherNode)}


@pytest.mark.parametrize("first, reason", [
    (Data(1, 1, 1, 1, 1, GOOD_BODY), "first frame is Data, not Attach"),
    (Attach("bigmgr", "big", "manager", "client"),
     "no process takes an Attach from manager 'bigmgr'"),
    (Attach("skein", "-", "session-root", "-"),
     "no process takes an Attach from session-root 'skein'"),
    (Attach("c999", "big", "agent", "client"), "no process takes an Attach from agent 'c999'"),
    (None, "connection closed before its Attach"),
], ids=["data-first", "manager-role", "session-root-role", "unknown-node", "closed-silent"])
def test_a_connection_without_a_placeable_attach_ends_alone(first, reason, caplog):
    rig = RelayRig()
    try:
        links, bound = gather_links(rig), set(rig.host.links)
        bad = rig.connect("c004")  # a relay's node: every key names the one endpoint
        if first is None:
            bad.close()
        else:
            bad.sendall(encode_message(first))
        pump_until_logged(rig, caplog, f"'link-fault', 0, '-', 'tcp3', {reason!r}")
        assert not rig.host.unbound
        if first is not None:  # it reads why, then EOF
            bad.settimeout(5.0)
            received = b""
            while chunk := bad.recv(1 << 16):
                received += chunk
            (error,), rest = decode_all(received)
            assert error == Error("link-fault", reason) and rest == b""
        rig.produce(1, GOOD_BODY)
        (record,) = rig.pump_until(rig.cons, Data)
        assert (record.round, record.aggregate_body) == (1, GOOD_BODY)
        assert gather_links(rig) == links and set(rig.host.links) == bound
    finally:
        rig.close()


def test_frames_behind_the_attach_reach_the_process_it_placed():
    """A child that sends its Attach, a Subscribe and part of a record in one
    write is placed at its relay with all of it: the Subscribe is handled,
    the partial frame stays in the link's decoder, and the record completes
    when the rest comes."""
    rig = RelayRig()
    try:
        data = encode_message(Data(rig.sid, 1, 1, 1, 1, GOOD_BODY))
        sent = (encode_message(Attach("c021", "big", "relay", "client"))
                + encode_message(Subscribe(rig.sid, "agent-producer")) + data[:10])
        child = rig.connect("c021")
        child.sendall(sent)
        key = (attach_point(rig.handle.topology, "c021")[0], "tcp3")
        deadline = time.monotonic() + 5.0
        while key not in rig.host.links or rig.host.links[key].bytes_received < len(sent):
            assert time.monotonic() < deadline, "the child's bytes did not all arrive"
            rig.host.pump()
        state = rig.host.links[key]
        assert state.frames_received == 2 and state.decoder.pending_bytes == 10
        assert rig.host.by_pid[key[0]].producer_children[rig.sid] == {"tcp2", "tcp3"}
        child.sendall(data[10:])
        rig.produce(1, GOOD_BODY)
        (record,) = rig.pump_until(rig.cons, Data)
        assert record.aggregate_body == "kind=summary\ng tait.7 IO_RD_BW 4 20 4 6"
        assert (record.expected_contributors, record.actual_contributors) == (2, 2)
        child.close()
    finally:
        rig.close()


MEMBERS_4096 = r"""
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
soft = 1024 if hard == resource.RLIM_INFINITY else min(1024, hard)
resource.setrlimit(resource.RLIMIT_NOFILE, (soft, hard))
from melt.sockethost import serve_overlay
from melt.topology import parse_topology
members = ",".join(f"c{i:05d}" for i in range(4096))
host, handle, endpoints = serve_overlay(parse_topology(
    f"[domain big]\nmanager = bigmgr\nmembers = {members}\nfanout = 4\n"
    "role = client\nfs = knot2\n[ring]\norder = big\nroot = skein\n"))
print(len(host.listeners), len(handle.relays), len(set(endpoints.values())))
host.close()
"""


def test_serve_overlay_of_4096_members_starts_under_1024_descriptors():
    pytest.importorskip("resource")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(sockethost.__file__).resolve().parent.parent)]
        + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.run([sys.executable, "-c", MEMBERS_4096], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # one listener for the root, the manager and 1,023 relays
    assert proc.stdout.split() == ["1", "1023", "1"]


def descriptors() -> int | None:
    """Open descriptors of this process, where /proc tells."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("n", [24, 1024])
def test_serve_overlay_opens_one_listener(n):
    names = ",".join(f"c{i:05d}" for i in range(n))
    before = descriptors()
    host, handle, endpoints = serve_overlay(parse_topology(
        f"[domain big]\nmanager = bigmgr\nmembers = {names}\nfanout = 4\n"
        "role = client\nfs = knot2\n[ring]\norder = big\nroot = skein\n"))
    try:
        assert len(host.listeners) == 1 and len(handle.relays) == (n - 1) // 4
        assert set(endpoints.values()) == {host.listeners[0][1].endpoint}
        if before is not None:  # the listener and the selector
            assert descriptors() == before + 2
    finally:
        host.close()


def test_close_also_closes_connections_waiting_for_their_attach():
    before = descriptors()
    host, _handle, endpoints = serve_overlay(parse_topology(ONE_DOMAIN))
    try:
        endpoint = parse_endpoint(endpoints["@root"])
        silent = socket.create_connection(endpoint, timeout=5.0)
        partial = socket.create_connection(endpoint, timeout=5.0)
        partial.sendall(encode_message(Attach("n1", "solo", "agent", "client"))[:5])
        placed = socket.create_connection(endpoint, timeout=5.0)
        placed.sendall(encode_message(Attach("n1", "solo", "agent", "client")))
        deadline = time.monotonic() + 5.0
        while len(host.unbound) < 2 or not any(k[1].startswith("tcp") for k in host.links):
            assert time.monotonic() < deadline, "the host did not accept all three"
            host.pump()
    finally:
        host.close()
    assert not host.unbound
    for sock in (silent, partial, placed):
        sock.settimeout(5.0)
        while sock.recv(1 << 16):  # placed reads its AttachAck first
            pass
        sock.close()
    if before is not None:
        assert descriptors() == before


def frames_of(data: bytes) -> list[bytes]:
    """The whole frames that ``data`` holds, as bytes, in order."""
    frames = []
    while True:
        msg, rest = decode_frame(data)
        if msg is None:
            return frames
        frames.append(data[:len(data) - len(rest)])
        data = rest


def test_a_tcp_agent_below_two_relay_hops_gets_the_frames_the_root_encoded(monkeypatch):
    """An agent attached over TCP at the deepest relay, below the manager and
    two in-process relay hops, gets a new stream's CreateStream and a
    JobMapUpdate as the frames the root encoded: no hop below the root
    encodes them again, each decodes to what the root holds, and each equals
    encode_message of what it decodes to, byte for byte."""
    rig = RelayRig()
    try:
        root = rig.handle.root
        domain = rig.handle.topology.domain("big")
        deepest = domain.internal_positions()[-1]
        assert domain.tree_parent(domain.tree_parent(deepest)) == 0  # the manager's position
        leaf = domain.node_at(domain.tree_children(deepest)[1])
        agent_sock = rig.connect(domain.node_at(deepest))
        rig.send(agent_sock, Attach(leaf, "big", "agent", "client"))
        raw = b""

        def pump_until(want) -> None:
            nonlocal raw
            deadline = time.monotonic() + 5.0
            while not any(isinstance(m, want) for m in decode_all(raw)[0]):
                assert time.monotonic() < deadline, f"no {want.__name__} for the agent"
                rig.host.pump()
                try:
                    raw += agent_sock.recv(1 << 20)
                except BlockingIOError:
                    pass

        pump_until(CreateStream)  # the catch-up for the rig's stream
        assert decode_all(raw)[1] == b""
        raw = b""
        encodes: Counter = Counter()
        encode = wire.encode_message
        monkeypatch.setattr(wire, "encode_message",
                            lambda msg: encodes.update([type(msg).__name__]) or encode(msg))
        rig.send(rig.cons, CreateStream(StreamSpec(
            0, "test/twin", "fs=knot2", ("IO_RD_BW", "IO_WR_BW"), "summary", (),
            "client", 2, 64)))
        pump_until(CreateStream)
        rig.send(rig.cons, JobMapUpdate(5, (("job.1", (leaf,)), ("job.2", ("c001", "c002")))))
        pump_until(JobMapUpdate)
        assert encodes == {"CreateStream": 1, "StreamCreated": 1, "JobMapUpdate": 1}
        frames = frames_of(raw)
        got = [decode_frame(frame)[0] for frame in frames]
        assert [type(m) for m in got] == [CreateStream, JobMapUpdate]
        assert got[0].spec == root.streams[got[0].spec.stream_id].spec
        assert got[0].spec.name == "test/twin"
        assert got[1] == root.jobmap_msg
        assert frames == [encode(m) for m in got]
    finally:
        rig.close()


def test_a_connection_without_a_whole_attach_by_its_deadline_reads_error_then_eof(monkeypatch):
    """A connection that sends nothing, and one that sends part of an
    Attach, end as link faults once ATTACH_SECONDS have passed: each reads
    why, then EOF, and once both close, the process holds no descriptor
    more than before they connected."""
    host, _handle, endpoints = serve_overlay(parse_topology(ONE_DOMAIN))
    try:
        before = descriptors()
        monkeypatch.setattr(sockethost, "ATTACH_SECONDS", 0.0)
        endpoint = parse_endpoint(endpoints["@root"])
        silent = socket.create_connection(endpoint, timeout=5.0)
        partial = socket.create_connection(endpoint, timeout=5.0)
        partial.sendall(encode_message(Attach("n1", "solo", "agent", "client"))[:5])
        deadline = time.monotonic() + 5.0
        while len(host.lingering) < 2:  # accepted by one pump, refused by a later one
            assert time.monotonic() < deadline, "the host did not refuse both"
            host.pump()
        assert not host.unbound and not any(name.startswith("tcp") for _pid, name in host.links)
        for sock in (silent, partial):
            received = b""
            while chunk := sock.recv(1 << 16):
                received += chunk
            (error,), rest = decode_all(received)
            assert error == Error("link-fault", "no Attach within 0 s") and rest == b""
            sock.close()
        deadline = time.monotonic() + 5.0
        while host.lingering:  # each is closed at its peer's EOF
            assert time.monotonic() < deadline, "the refused sockets stayed open"
            host.pump()
        if before is not None:
            assert descriptors() == before
    finally:
        host.close()


def test_a_tcp_agent_that_goes_away_keeps_its_count_and_a_new_one_is_waited_for():
    """An agent attached over TCP produces at a relay, then its socket
    closes: the next round completes without it, the relay counting its
    last expected contributor but not its contribution. An agent that then
    attaches and subscribes at that relay is waited for again."""
    rig = RelayRig()
    try:
        domain = rig.handle.topology.domain("big")
        deepest = domain.internal_positions()[-1]
        relay_node = domain.node_at(deepest)
        relay = rig.host.by_pid[attach_point(rig.handle.topology, relay_node)[0]]
        leaves = [domain.node_at(pos) for pos in domain.tree_children(deepest)]

        def attach_agent(leaf: str) -> socket.socket:
            sock = rig.connect(relay_node)
            rig.send(sock, Attach(leaf, "big", "agent", "client"))
            rig.pump_until(sock, CreateStream)
            rig.send(sock, Subscribe(rig.sid, "agent-producer"))
            rig.pump_until(sock, SubscribeAck)
            return sock

        def record_of(rnd: int, *agents: socket.socket) -> tuple[int, int, int]:
            rig.produce(rnd, GOOD_BODY)
            for sock in agents:
                rig.send(sock, Data(rig.sid, rnd, 1, 1, 1, GOOD_BODY))
            (record,) = rig.pump_until(rig.cons, Data)
            return record.round, record.expected_contributors, record.actual_contributors

        first = attach_agent(leaves[1])
        (link,) = [l for l, node in relay.agent_children.items() if node == leaves[1]]
        assert link in relay.live_producers(rig.sid)
        assert record_of(1, first) == (1, 2, 2)
        first.close()
        deadline = time.monotonic() + 5.0
        while link in relay.live_producers(rig.sid):
            assert time.monotonic() < deadline, "the relay did not see the socket close"
            rig.host.pump()
        assert link in relay.producer_links(rig.sid)  # still counted in expected
        assert record_of(2) == (2, 2, 1)

        second = attach_agent(leaves[2])
        rig.produce(3, GOOD_BODY)
        until = time.monotonic() + 0.2
        while time.monotonic() < until:
            rig.host.pump()
        with pytest.raises(BlockingIOError):  # round 3 waits for the new agent
            rig.cons.recv(1 << 16)
        rig.send(second, Data(rig.sid, 3, 1, 1, 1, GOOD_BODY))
        (record,) = rig.pump_until(rig.cons, Data)
        assert (record.round, record.expected_contributors, record.actual_contributors) \
            == (3, 3, 2)
        assert record.aggregate_body == "kind=summary\ng tait.7 IO_RD_BW 4 20 4 6"
        second.close()
    finally:
        rig.close()
