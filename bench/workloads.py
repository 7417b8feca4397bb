"""The benchmark's three workloads.

Each workload object is built from a seed and a size, and then driven by the
runner in ``run.py`` through these calls:

``setup()``
    Builds everything from nothing up to the first round: topology parse,
    overlay build, agent and client attach, stream create and subscribe.
    ``WARMUP`` rounds follow before the first timed round; the runner
    counts their triggers, not their checks, into set-up time.
``prepare()``
    Outside the timed region: stages the next round's input, if any.
``trigger()``
    The timed part of one round: from the round's trigger until the
    consumer holds that round's record.
``check()``
    Outside the timed region: verifies what the consumers received in the
    round and clears the per-round transcript and record lists, so memory
    stays flat. Returns ``(ok, contributors)``.
``close()``
    Releases sockets and references.

All load comes from one process and one thread. The sim workloads are
closed-loop by construction (the logical clock advances only when the
overlay is quiescent); ``tcp_relay`` keeps one round outstanding.
"""

from __future__ import annotations

import math
import os
import random
import socket
import time

from melt import wire
from melt.aggregates import HistogramBody, SummaryBody, body_from_text
from melt.overlay import ClientCore
from melt.scenario import parse_scenario
from melt.simharness import RunResult, SimCluster, oracle_aggregate
from melt.sockethost import serve_overlay
from melt.streams import StreamSpec, expected_producers
from melt.topology import parse_topology

SCENARIO_SECONDS = 100_000  # logical horizon of the generated scenarios
ROUND_DEADLINE_S = 30.0     # a tcp_relay round that takes longer is missing

TESTBED_PATH = os.path.join("melt", "data", "testbed.cfg")
TESTBED_SESSIONS = (
    ("melt-fs", ["-group=job", "fs", "status", "io", "-delay=5s"]),
    ("melt-oss", ["-group=client", "oss=oss03", "top", "io", "-delay=5s"]),
)


class Consumer(ClientCore):
    """A plain session client that only collects records."""

    def __init__(self, name: str) -> None:
        super().__init__(f"client.{name}", name)


def bodies_match(text: str, oracle) -> bool:
    """The tree's record body against the flat-fold oracle.

    Counts, extrema and histogram tallies must be equal; sums may differ by
    float reassociation, within the same tolerance as the c04 acceptance
    check.
    """
    body = body_from_text(text)
    if type(body) is not type(oracle):
        return False
    if isinstance(body, SummaryBody):
        if set(body.entries) != set(oracle.entries):
            return False
        for key, want in oracle.entries.items():
            got = body.entries[key]
            if got.count != want.count or got.min != want.min or got.max != want.max:
                return False
            if not math.isclose(got.sum, want.sum, rel_tol=1e-9, abs_tol=1e-9):
                return False
        return True
    if isinstance(body, HistogramBody):
        return body.edges == oracle.edges and body.entries == oracle.entries
    return body.counts == oracle.counts


# --- simulated workloads ------------------------------------------------------


class SimWorkload:
    """Common sim driving: one ``SimCluster``, one logical second per round."""

    rounds_per_setup: int | None = None  # None: rounds continue until stopped
    WARMUP = 1  # rounds between setup and the first timed round

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.cluster: SimCluster | None = None
        self.now = 0
        self.expected: dict[int, int] = {}

    def build(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        self.build()
        self.cluster.host.transcript.clear()

    def exhausted(self) -> bool:
        return self.rounds_per_setup is not None and self.now >= self.rounds_per_setup

    def prepare(self) -> None:
        """Nothing to stage: a sim round's inputs come from the workload model."""

    def trigger(self) -> None:
        self.cluster.advance(1)
        self.now = self.cluster.now

    def subscriptions(self) -> dict[int, list[ClientCore]]:
        """stream id -> consumers the root currently delivers it to."""
        root = self.cluster.handle.root
        clients = {f"client:{name}": core for name, core in self.cluster.handle.clients.items()}
        out = {}
        for sid, state in root.streams.items():
            live = [clients[link] for link in state.consumers if link in clients]
            if live:
                out[sid] = live
        return out

    def producers(self, sid: int) -> int:
        count = self.expected.get(sid)
        if count is None:
            spec = self.cluster.handle.root.streams[sid].spec
            count = self.expected[sid] = len(expected_producers(spec, self.cluster.spec.topology))
        return count

    def check(self) -> tuple[bool, int]:
        cluster = self.cluster
        root = cluster.handle.root
        t = self.now
        ok = True
        contributors = 0
        due = {sid: consumers for sid, consumers in self.subscriptions().items()
               if t % root.effective_interval(sid) == 0
               and t > root.spec_seen.get(sid, -1)}
        streams = {sid: state.spec for sid, state in root.streams.items()}
        result = RunResult(cluster.spec, cluster.host.transcript, streams)
        checked: dict[tuple[int, int], bool] = {}
        received: set[tuple[int, int, str]] = set()
        for core in cluster.handle.clients.values():
            for record in core.records:
                key = (record.stream_id, record.round)
                received.add(key + (core.client_name,))
                if key not in checked:
                    good = (record.round == t
                            and record.expected_contributors == self.producers(record.stream_id)
                            and record.actual_contributors == record.expected_contributors
                            and bodies_match(record.aggregate_body,
                                             oracle_aggregate(result, *key)))
                    checked[key] = good
                    contributors += record.actual_contributors
                ok = ok and checked[key]
            core.records.clear()
        for sid, consumers in due.items():
            for core in consumers:
                if (sid, t, core.client_name) not in received:
                    ok = False
        cluster.host.transcript.clear()
        return ok, contributors

    def close(self) -> None:
        self.cluster = None


class Testbed(SimWorkload):
    """The shipped testbed scenario with two ``melt`` sessions, repeated."""

    WARMUP = 0  # every logical second of the scenario is a timed round

    def __init__(self, seed: int, src_dir: str, ticks: int = 60) -> None:
        super().__init__(seed)
        with open(os.path.join(src_dir, TESTBED_PATH), encoding="utf-8") as fh:
            self.text = fh.read()
        self.rounds_per_setup = ticks

    def build(self) -> None:
        spec = parse_scenario(self.text, source="testbed.cfg")
        spec.seed = self.seed
        self.cluster = SimCluster(spec)
        for name, argv in TESTBED_SESSIONS:
            self.cluster.add_cli(argv, name=name)


def domain_scenario_text(n: int, seed: int) -> str:
    """One client domain of ``n`` agents, fanout 4, every node in a job of
    12 to 20 nodes, and every job with an io flow of seeded rates."""
    rng = random.Random(seed)
    nodes = [f"n{i:05d}" for i in range(n)]
    order = nodes[:]
    rng.shuffle(order)
    lines = []
    start = 0
    while start < n:
        size = rng.randint(12, 20)
        members = order[start:start + size]
        start += size
        job = f"job.{len(lines) // 2}"
        rd = rng.randint(1, 200) * 1024 * 1024 + rng.randint(0, 999)
        wr = rng.randint(1, 100) * 1024 * 1024 + rng.randint(0, 999)
        lines.append(f"job 0 {SCENARIO_SECONDS} {job} " + " ".join(members))
        lines.append(f"io 0 {SCENARIO_SECONDS} {job} {rd} {wr} roundrobin")
    return (f"[domain big]\nmanager = bigmgr\nmembers = {','.join(nodes)}\n"
            "fanout = 4\nrole = client\nfs = knot2\n"
            "[ring]\norder = big\nroot = skein\n"
            f"[scenario]\nduration = {SCENARIO_SECONDS}\nseed = {seed}\nmeltmon = off\n"
            "[workload]\n" + "\n".join(lines) + "\n")


class ClientGroups(SimWorkload):
    """One deep client domain with a single ``group_by=client`` summary
    stream, so the body carries one group per agent toward the root."""

    def __init__(self, seed: int, n: int) -> None:
        super().__init__(seed)
        self.text = domain_scenario_text(n, seed)

    def build(self) -> None:
        spec = parse_scenario(self.text, source="client_groups")
        self.cluster = SimCluster(spec)
        host = self.cluster.host
        consumer = self.cluster.add_client(Consumer("bench"))
        consumer.create_stream(StreamSpec(
            0, "bench/client_groups", "fs=knot2", ("IO_RD_BW", "IO_WR_BW"),
            "summary", (), "client", 1, 1024))
        host.flush(consumer)
        host.pump()
        if not consumer.created:
            raise RuntimeError(f"stream not created: {consumer.errors}")
        consumer.subscribe(consumer.created[-1])
        host.flush(consumer)
        host.pump()


# --- loopback TCP relay ---------------------------------------------------------


def _num(x: float) -> str:
    return str(int(x)) if x == int(x) and abs(x) < 2 ** 53 else repr(x)


def summary_text(entries: dict) -> str:
    """Aggregate-body text of a summary, written here rather than by the
    code under test: ``(group, metric) -> (count, sum, min, max)``."""
    lines = ["kind=summary"]
    for (group, metric), values in sorted(entries.items()):
        lines.append(f"g {group} {metric} " + " ".join(_num(v) for v in values))
    return "\n".join(lines)


def received_entries(text: str) -> dict:
    body = body_from_text(text)
    if not isinstance(body, SummaryBody):
        return {}
    return {key: (a.count, a.sum, a.min, a.max) for key, a in body.entries.items()}


class TcpRelay:
    """``serve_overlay`` for one client domain, driven over two loopback
    connections: a producer attached to the deepest relay with process role
    ``relay``, and a session consumer at ``@root``."""

    rounds_per_setup = None
    WARMUP = 3
    METRICS = ("IO_RD_BW", "IO_WR_BW")

    def __init__(self, seed: int, n: int) -> None:
        self.seed = seed
        self.n = n
        self.rng = random.Random(seed)
        self.host = None
        self.socks: list[socket.socket] = []
        self.round = 0
        self.frame = b""
        self.sent: dict = {}
        self.got: list = []
        self.loopback = True

    def exhausted(self) -> bool:
        return False

    # The load generator uses raw sockets, so the transport layer's counters
    # see only the overlay's side of each connection.

    def connect(self, endpoint: str) -> tuple[socket.socket, wire.FrameDecoder]:
        host, _, port = endpoint.rpartition(":")
        sock = socket.create_connection((host, int(port)), timeout=5.0)
        self.socks.append(sock)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        self.loopback = (self.loopback and sock.getpeername()[0] == "127.0.0.1"
                         and sock.getsockname()[0] == "127.0.0.1")
        return sock, wire.FrameDecoder()

    @staticmethod
    def receive(sock: socket.socket, decoder: wire.FrameDecoder) -> list:
        try:
            data = sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise ConnectionError("overlay closed a benchmark connection")
        return decoder.feed(data)

    def pump_until(self, sock, decoder, want) -> list:
        """Pump the host until a message of type ``want`` reaches ``sock``."""
        seen = []
        deadline = time.monotonic() + ROUND_DEADLINE_S
        while time.monotonic() < deadline:
            self.host.pump()
            seen.extend(self.receive(sock, decoder))
            if any(isinstance(m, want) for m in seen):
                return seen
        raise TimeoutError(f"no {want.__name__} from the overlay")

    def setup(self) -> None:
        members = ",".join(f"c{i:05d}" for i in range(self.n))
        topology = parse_topology(
            f"[domain big]\nmanager = bigmgr\nmembers = {members}\nfanout = 4\n"
            "role = client\nfs = knot2\n[ring]\norder = big\nroot = skein\n")
        self.host, handle, endpoints = serve_overlay(topology)

        self.cons, self.cons_dec = self.connect(endpoints["@root"])
        self.cons.sendall(wire.encode_message(
            wire.Attach("bench-consumer", "-", "session-client", "-")))
        spec = StreamSpec(0, "bench/tcp_relay", "fs=knot2", self.METRICS, "summary",
                          (), "job", 1, 1024)
        self.cons.sendall(wire.encode_message(wire.CreateStream(spec)))
        created = [m for m in self.pump_until(self.cons, self.cons_dec, wire.StreamCreated)
                   if isinstance(m, wire.StreamCreated)]
        self.sid = created[0].stream_id
        self.cons.sendall(wire.encode_message(wire.Subscribe(self.sid, "up-consumer")))
        self.pump_until(self.cons, self.cons_dec, wire.SubscribeAck)

        domain = topology.domain("big")
        deepest = domain.internal_positions()[-1]
        leaf = domain.node_at(domain.tree_children(deepest)[0])
        self.prod, self.prod_dec = self.connect(endpoints[domain.node_at(deepest)])
        self.prod.sendall(wire.encode_message(wire.Attach(leaf, "big", "relay", "client")))
        self.pump_until(self.prod, self.prod_dec, wire.CreateStream)
        self.prod.sendall(wire.encode_message(wire.Subscribe(self.sid, "agent-producer")))
        self.host.pump()
        self.relays = len(handle.relays)
        self.listeners = len(self.host.listeners)

    def next_body(self) -> dict:
        """Job-grouped summary entries whose body text is roughly 1 to 3 KB."""
        rng = self.rng
        entries = {}
        for _ in range(rng.randint(10, 28)):
            job = f"tait.{rng.randint(1000, 99999)}"
            for metric in self.METRICS:
                low = rng.randint(0, 10 ** 7) / 8
                entries[(job, metric)] = (float(rng.randint(1, 16)),
                                          rng.randint(0, 10 ** 10) / 4,
                                          low, low + rng.randint(0, 10 ** 9) / 8)
        return entries

    def prepare(self) -> None:
        """Encode the next round's frame before its trigger."""
        self.round += 1
        self.sent = self.next_body()
        self.frame = wire.encode_message(
            wire.Data(self.sid, self.round, 1, self.n, self.n, summary_text(self.sent)))

    def trigger(self) -> None:
        self.prod.sendall(self.frame)
        self.got = self.pump_until(self.cons, self.cons_dec, wire.Data)

    def check(self) -> tuple[bool, int]:
        records = [m for m in self.got if isinstance(m, wire.Data)]
        self.got = []
        ok = (len(records) == 1
              and records[0].round == self.round
              and records[0].expected_contributors == self.n
              and records[0].actual_contributors == self.n
              and received_entries(records[0].aggregate_body) == self.sent)
        return ok, sum(r.actual_contributors for r in records)

    def close(self) -> None:
        for sock in self.socks:
            sock.close()
        self.socks = []
        if self.host is not None:
            for _proc, listener in self.host.listeners:
                listener.close()
            for link in self.host.links.values():
                link.channel.close()
            self.host = None
