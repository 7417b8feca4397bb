"""Shared helpers for simulation-backed tests."""

from __future__ import annotations

from melt.agent import AgentConfig, AgentCore
from melt.overlay import ClientCore, OverlayHandle, build_overlay
from melt.scenario import SyntheticSource, WorkloadModel, WorkloadScript, parse_workload
from melt.simnet import SimHost
from melt.streams import StreamSpec
from melt.topology import parse_topology
from melt.transport import SimChannelEnd

FIVE_DOMAINS = """
[domain d0]
manager = m0
members = n0
fanout = 2
role = client
fs = knot2
[domain d1]
manager = m1
members = n1
fanout = 2
role = client
fs = knot2
[domain d2]
manager = m2
members = n2
fanout = 2
role = client
fs = knot2
[domain d3]
manager = m3
members = n3
fanout = 2
role = client
fs = knot2
[domain d4]
manager = m4
members = n4
fanout = 2
role = client
fs = knot2
[ring]
order = d0,d1,d2,d3,d4
root = skein
"""

ONE_DOMAIN = """
[domain solo]
manager = mgr
members = n1
fanout = 2
role = client
fs = knot2
[ring]
order = solo
root = skein
"""


# two filesystems: knot2 on domains c, oss and mds, alpha on domains a and
# ossa; the router domain mounts none
TWO_FILESYSTEMS = """
[domain c]
manager = cm
members = c1,c2,c3
fanout = 2
role = client
fs = knot2
[domain a]
manager = am
members = a1,a2
fanout = 2
role = client
fs = alpha
[domain oss]
manager = o1
members = o1,o2
fanout = 2
role = oss
fs = knot2
osts = knot2-OST0000,knot2-OST0001
[domain ossa]
manager = p1
members = p1
fanout = 2
role = oss
fs = alpha
osts = alpha-OST0000
[domain mds]
manager = m1
members = m1
fanout = 2
role = mds
fs = knot2
[domain rtr]
manager = r1
members = r1
fanout = 2
role = router
[ring]
order = c,a,oss,ossa,mds,rtr
root = skein
[scenario]
duration = 30
[workload]
job 0 30 jk c1 c2 c3
job 0 30 ja a1 a2
io 0 30 jk 4M 2M roundrobin
io 0 30 ja 3M 1M single:p1
"""


def deep_domain(n_members: int, fanout: int = 4, role: str = "client") -> str:
    members = ",".join(f"n{i:03d}" for i in range(n_members))
    return (f"[domain big]\nmanager = bigmgr\nmembers = {members}\n"
            f"fanout = {fanout}\nrole = {role}\nfs = knot2\n"
            "[ring]\norder = big\nroot = skein\n")


class DriverClient(ClientCore):
    """Bare session client for driving the root directly in tests."""

    def __init__(self, name: str = "driver") -> None:
        super().__init__(f"client.{name}", name)


def make_sim(topology_text: str, workload_lines: tuple[str, ...] = (),
             seed: int = 0):
    """(host, handle, model) for a topology and inline workload lines."""
    topology = parse_topology(topology_text)
    host = SimHost()
    handle = build_overlay(topology, host)
    script = parse_workload(list(enumerate(workload_lines, start=1))) \
        if workload_lines else WorkloadScript()
    model = WorkloadModel(topology, script, seed)
    host.pump()
    return host, handle, model


def attach_agents(handle: OverlayHandle, model: WorkloadModel, nodes=None) -> None:
    topology = handle.topology
    for node in (nodes if nodes is not None else topology.all_nodes()):
        config = AgentConfig.from_topology(topology, node)
        agent = AgentCore(config, SyntheticSource(model, node), topology)
        handle.attach_agent(agent)
    handle.host.pump()


def add_driver(handle: OverlayHandle, name: str = "driver") -> DriverClient:
    client = DriverClient(name)
    handle.add_client(client)
    handle.host.pump()
    return client


def create_stream(handle: OverlayHandle, client: DriverClient, spec: StreamSpec) -> int:
    before = len(client.created)
    client.create_stream(spec)
    handle.host.flush(client)
    handle.host.pump()
    if len(client.created) == before:
        raise AssertionError(f"stream not created: {list(client.errors)[-1:]}")
    return client.created[-1]


def received(host: SimHost) -> dict[str, int]:
    """Frames each live process was handed, summed over its links."""
    return {event[2]: event[4] for event in host.counters_snapshot()}


def decode_every_frame(monkeypatch) -> None:
    """Send every in-process frame without its message, so that the peer's
    host decodes it as it would a frame off a socket."""
    send = SimChannelEnd.send
    monkeypatch.setattr(SimChannelEnd, "send", lambda self, data, msg=None: send(self, data))


def encode_every_send(monkeypatch) -> None:
    """Make the host forget its last encoded message, and the last one it
    handed over with its frame, before every send, so that a multicast is
    encoded once per link and a forwarded message once per hop."""
    send = SimHost.send

    def forgetful(self, proc, link, msg) -> None:
        self._encoded = self._arrived = None
        send(self, proc, link, msg)

    monkeypatch.setattr(SimHost, "send", forgetful)


def run_ticks(host: SimHost, start: int, count: int) -> int:
    for t in range(start, start + count):
        host.tick(t)
    return start + count


def io_stream_spec(name="s/io", target="fs=knot2", metrics=("IO_RD_BW",),
                   group_by="none", interval=1, capacity=1024) -> StreamSpec:
    return StreamSpec(0, name, target, tuple(metrics), "summary", (),
                      group_by, interval, capacity)


def data_sends(transcript, stream_id=None, dst=None, src=None):
    out = []
    for ev in transcript:
        if ev[0] != "send" or ev[4] != "Data":
            continue
        if stream_id is not None and ev[5] != stream_id:
            continue
        if dst is not None and ev[3] != dst:
            continue
        if src is not None and ev[2] != src:
            continue
        out.append(ev)
    return out


# --- randomized scenarios for oracle testing -----------------------------------

import math
import random

from melt.aggregates import HistogramBody, SummaryBody, body_from_text
from melt.catalog import metric as metric_def
from melt.scenario import ScenarioSpec, parse_workload as _parse_workload
from melt.wire import Data

STREAM_INTERVALS = (1, 2, 5)


def random_scenario(rng: random.Random, max_leaves: int = 64) -> ScenarioSpec:
    """A random topology plus workload; at least one client domain with io."""
    n_domains = rng.randint(1, 4)
    roles = ["client"] + [rng.choice(["client", "oss", "mds", "router"])
                          for _ in range(n_domains - 1)]
    rng.shuffle(roles)
    budget = rng.randint(max(n_domains, max_leaves // 2), max_leaves)
    sizes = []
    remaining = budget
    for i in range(n_domains):
        hi = max(1, remaining - (n_domains - i - 1))
        size = rng.randint(1, hi) if i < n_domains - 1 else hi
        sizes.append(size)
        remaining -= size
    parts = []
    node_names: dict[str, list[str]] = {}
    for i, (role, size) in enumerate(zip(roles, sizes)):
        nodes = [f"d{i}x{j}" for j in range(size)]
        node_names[f"d{i}"] = nodes
        fanout = rng.randint(2, 5)
        part = (f"[domain d{i}]\nmanager = d{i}mgr\nmembers = {','.join(nodes)}\n"
                f"fanout = {fanout}\nrole = {role}\n")
        if role in ("client", "oss", "mds"):
            part += "fs = knot2\n"
        if role == "oss":
            osts = ",".join(f"knot2-OST{i}{k:02d}" for k in range(rng.randint(1, 2 * size)))
            part += f"osts = {osts}\n"
        parts.append(part)
    order = [f"d{i}" for i in range(n_domains)]
    rng.shuffle(order)
    topo_text = "\n".join(parts) + f"\n[ring]\norder = {','.join(order)}\nroot = skein\n"
    topology = parse_topology(topo_text)

    clients = [n for i, role in enumerate(roles) if role == "client"
               for n in node_names[f"d{i}"]]
    duration = rng.choice((10, 12, 15))
    lines = []
    pool = clients[:]
    rng.shuffle(pool)
    for j in range(rng.randint(1, min(3, len(pool)))):
        take = rng.randint(1, max(1, len(pool) // 2))
        members, pool = pool[:take], pool[take:]
        if not members:
            break
        start = rng.randint(0, 3)
        end = rng.randint(start + 4, duration)
        job = f"job.{j}"
        lines.append(f"job {start} {end} {job} " + " ".join(members))
        oss_nodes = topology.servers("oss")
        spread = "roundrobin" if not oss_nodes or rng.random() < 0.7 \
            else f"single:{rng.choice(oss_nodes)}"
        rd = rng.choice((0, 1, 3, 17)) * 1024 * 1024 + rng.randint(0, 999)
        wr = rng.choice((0, 2, 5)) * 1024 * 1024
        lines.append(f"io {start} {end} {job} {rd} {wr} {spread}")
        if rng.random() < 0.7:
            lines.append(f"meta {start} {end} {job} {rng.randint(1, 80)} "
                         "open:3,stat:5,mkdir:1")
        if rng.random() < 0.4:
            lines.append(f"paths {start} {end} {job} /p/{j}:2,/q:{rng.randint(1, 5)}")
    workload = _parse_workload(list(enumerate(lines, start=1)))
    return ScenarioSpec(topology, workload, duration=duration,
                        seed=rng.randint(0, 99), meltmon_enabled=False)


def random_stream_specs(rng: random.Random, topology) -> list:
    """1..3 random but valid stream specs for the topology."""
    specs = []
    for k in range(rng.randint(1, 3)):
        kind = rng.random()
        oss_nodes = topology.servers("oss")
        mds_nodes = topology.servers("mds")
        interval = rng.choice(STREAM_INTERVALS)
        if kind < 0.5 or (not oss_nodes and not mds_nodes):
            group = rng.choice(("none", "job", "server", "client"))
            metrics = tuple(rng.sample(
                ("IO_RD_BW", "IO_WR_BW", "META_OP_RATE", "IO_CLNT_AVG_RD_SZ"),
                k=rng.randint(1, 3)))
            if rng.random() < 0.2:
                specs.append(StreamSpec(0, f"t{k}", "fs=knot2", ("IO_RD_BW",),
                                        "histogram", (1.0, 1024.0, 1048576.0, 2e8),
                                        group, interval, 1024))
                continue
            specs.append(StreamSpec(0, f"t{k}", "fs=knot2", metrics, "summary",
                                    (), group, interval, 1024))
        elif oss_nodes and (kind < 0.8 or not mds_nodes):
            node = rng.choice(oss_nodes)
            group = rng.choice(("none", "client", "job", "ost"))
            metrics = tuple(rng.sample(("IO_RD_BW", "IO_WR_BW", "RPC_REQ_RATE"),
                                       k=rng.randint(1, 2)))
            specs.append(StreamSpec(0, f"t{k}", f"oss={node}", metrics, "summary",
                                    (), group, interval, 1024))
        else:
            node = rng.choice(mds_nodes)
            cls = rng.choice(("op", "path", "client"))
            from melt.catalog import COUNTED_CLASS_METRIC
            specs.append(StreamSpec(0, f"t{k}", f"mds={node}",
                                    (COUNTED_CLASS_METRIC[cls],), "counted-key",
                                    (), "none", interval, 1024))
    return specs


def assert_body_matches_oracle(record: Data, oracle):
    body = body_from_text(record.aggregate_body)
    assert type(body) is type(oracle)
    if isinstance(body, SummaryBody):
        assert set(body.entries) == set(oracle.entries)
        for key, agg in oracle.entries.items():
            got = body.entries[key]
            assert got.count == agg.count
            assert got.min == agg.min and got.max == agg.max
            assert math.isclose(got.sum, agg.sum, rel_tol=1e-9, abs_tol=1e-9)
    elif isinstance(body, HistogramBody):
        assert body.edges == oracle.edges
        assert body.entries == oracle.entries
    else:
        assert body.counts == oracle.counts
    return body


def brute_force_topk(samples, key_metric: str, k: int):
    """Rank groups straight from leaf tuples, independent of select_topk.

    Groups that never reported the key metric rank with value 0, matching
    the presentation rule that sparse groups still show full rows.
    """
    groups = {group for group, _m, _v, _w in samples}
    sums: dict[str, float] = {}
    weights: dict[str, float] = {}
    for group, metric, value, weight in samples:
        if metric != key_metric:
            continue
        sums[group] = sums.get(group, 0.0) + value * weight
        weights[group] = weights.get(group, 0.0) + weight
    if metric_def(key_metric).accumulate == "mean":
        totals = {g: sums[g] / weights[g] for g in sums if weights[g]}
    else:
        totals = sums
    ranked = sorted(((g, totals.get(g, 0.0)) for g in groups),
                    key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
