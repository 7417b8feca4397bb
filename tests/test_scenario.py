"""Workload grammar and closed-form counter model checks."""

from __future__ import annotations

import copy
import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melt.agent import read_names
from melt.scenario import (
    CLIENT_NAMES, DEFAULT_BASE_TIME, RPC_BYTES, IoEvent, JobEvent, LoadEvent, WorkloadModel,
    WorkloadScript, _overlap, load_scenario, parse_scenario, parse_workload,
)
from melt.simharness import SimCluster, resolve_scenario_path
from melt.topology import ConfigError, parse_topology

from simutil import (
    FIVE_DOMAINS, ONE_DOMAIN, TWO_FILESYSTEMS, DriverClient, assert_body_matches_oracle,
    create_stream, io_stream_spec, random_scenario, random_stream_specs,
)

MI = 1024 * 1024

TOPO = parse_topology("""
[domain c]
manager = cm
members = c1,c2
fanout = 2
role = client
fs = knot2
[domain oss]
manager = o1
members = o1,o2
fanout = 2
role = oss
fs = knot2
osts = knot2-OST0000,knot2-OST0001
[domain mds]
manager = m1
members = m1
fanout = 2
role = mds
fs = knot2
[ring]
order = c,oss,mds
root = skein
""")


def lines(*texts):
    return list(enumerate(texts, start=1))


class TestWorkloadGrammar:
    def test_parse_all_event_kinds(self):
        script = parse_workload(lines(
            "job 0 20 j1 c1 c2",
            "io 0 20 j1 4M 2M roundrobin",
            "meta 5 15 j1 40 open:1,stat:3",
            "paths 0 20 j1 /a:2,/b:1",
            "load c1 0 20 50 25",
        ))
        assert script.jobs[0].nodes == ("c1", "c2")
        assert script.io[0].read_bps == 4 * MI
        assert dict(script.meta[0].weights) == {"open": 1.0, "stat": 3.0}
        assert script.loads[0].cpu_pct == 50

    def test_line_numbers_in_errors(self):
        with pytest.raises(ConfigError, match=":2"):
            parse_workload(lines("job 0 10 j1 c1", "io 0 10 j1 4M"))

    def test_undeclared_job(self):
        with pytest.raises(ConfigError, match="ghost"):
            parse_workload(lines("io 0 10 ghost 1 1 roundrobin"))

    def test_overlapping_jobs_share_node(self):
        with pytest.raises(ConfigError, match="c1"):
            parse_workload(lines("job 0 10 j1 c1", "job 5 15 j2 c1"))

    def test_sequential_jobs_may_share_node(self):
        script = parse_workload(lines("job 0 10 j1 c1", "job 10 20 j2 c1"))
        assert len(script.jobs) == 2

    def test_bad_weight(self):
        with pytest.raises(ConfigError, match="weight"):
            parse_workload(lines("job 0 9 j1 c1", "meta 0 9 j1 5 open:-1"))

    def test_bad_interval(self):
        with pytest.raises(ConfigError, match="interval"):
            parse_workload(lines("job 9 3 j1 c1"))


def reference_overlap_error(jobs: list[JobEvent], source: str) -> str | None:
    """The pairwise check parse_workload made before its node index."""
    for j in jobs:
        for other in jobs:
            if other is j or other.end <= j.start or j.end <= other.start:
                continue
            shared = set(j.nodes) & set(other.nodes)
            if shared:
                return (f"{source}: node {sorted(shared)[0]} is in overlapping "
                        f"jobs {j.job_id} and {other.job_id}")
    return None


JOB_SETS = st.lists(
    st.tuples(st.integers(0, 30), st.integers(1, 12),
              st.lists(st.sampled_from(["c1", "c2", "c3", "c4", "c5", "c6"]),
                       min_size=1, max_size=4)),
    max_size=14)


@settings(max_examples=400, deadline=None)
@given(JOB_SETS)
def test_overlap_check_matches_pairwise_reference(specs):
    jobs = [JobEvent(start, start + length, f"j{i}", tuple(nodes))
            for i, (start, length, nodes) in enumerate(specs)]
    expected = reference_overlap_error(jobs, "<gen>")
    job_lines = lines(*(f"job {j.start} {j.end} {j.job_id} {' '.join(j.nodes)}" for j in jobs))
    try:
        script = parse_workload(job_lines, "<gen>")
    except ConfigError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert script.jobs == tuple(jobs)


class TestScenarioFile:
    def test_full_scenario(self):
        text = FIVE_DOMAINS + """
[scenario]
duration = 30
seed = 7
poll = 3
base_time = 2015-01-15T11:22:33
fault = 10 detach-agent n2
fault = 12 drop-ring-link d1

[workload]
job 0 30 j1 n0 n1
io 0 30 j1 1M 2M roundrobin
"""
        spec = parse_scenario(text)
        assert spec.duration == 30 and spec.seed == 7 and spec.poll_secs == 3
        assert spec.base_time == DEFAULT_BASE_TIME
        assert [f.kind for f in spec.faults] == ["detach-agent", "drop-ring-link"]

    def test_fault_subject_validation(self):
        base = ONE_DOMAIN + "[scenario]\nduration = 10\n"
        with pytest.raises(ConfigError, match="ghost"):
            parse_scenario(base + "fault = 5 detach-agent ghost\n")
        with pytest.raises(ConfigError, match="not a domain"):
            parse_scenario(base + "fault = 5 drop-ring-link nowhere\n")

    def test_event_beyond_duration(self):
        text = ONE_DOMAIN + "[scenario]\nduration = 10\n[workload]\njob 0 20 j1 n1\n"
        with pytest.raises(ConfigError, match="after the"):
            parse_scenario(text)

    def test_single_spread_must_name_oss(self):
        text = ONE_DOMAIN + ("[scenario]\nduration = 10\n[workload]\n"
                             "job 0 10 j1 n1\nio 0 10 j1 1M 0 single:nowhere\n")
        with pytest.raises(ConfigError, match="nowhere"):
            parse_scenario(text)


class TestClosedFormModel:
    def model(self, *workload, seed=0):
        return WorkloadModel(TOPO, parse_workload(lines(*workload)), seed)

    def test_client_io_accumulates_rate_times_overlap(self):
        m = self.model("job 0 30 j1 c1 c2", "io 5 15 j1 4M 2M roundrobin")
        snap = m.snapshot("c1", 10)
        rd = sum(v for k, v in snap.counters.items() if k[0] == "IO_RD_BYTES")
        wr = sum(v for k, v in snap.counters.items() if k[0] == "IO_WR_BYTES")
        assert rd == pytest.approx(4 * MI * 5, rel=1e-12)   # 5s of overlap
        assert wr == pytest.approx(2 * MI * 5, rel=1e-12)
        # spread across both osts evenly
        per_ost = [v for k, v in sorted(snap.counters.items())
                   if k[0] == "IO_RD_BYTES" and k[2]]
        assert per_ost == pytest.approx([2 * MI * 5, 2 * MI * 5])

    def test_model_is_pure_function_of_time(self):
        m = self.model("job 0 30 j1 c1", "io 0 30 j1 3M 1M roundrobin")
        assert m.snapshot("c1", 17).counters == m.snapshot("c1", 17).counters
        early = m.snapshot("c1", 5).counters
        late = m.snapshot("c1", 20).counters
        for key, value in early.items():
            assert late.get(key, 0) >= value  # monotone counters

    def test_oss_mirror_matches_client_totals(self):
        m = self.model("job 0 30 j1 c1 c2", "io 0 30 j1 4M 2M roundrobin")
        t = 12
        client_rd = sum(
            v for node in ("c1", "c2")
            for k, v in m.snapshot(node, t).counters.items() if k[0] == "IO_RD_BYTES")
        oss_rd = sum(
            v for node in ("o1", "o2")
            for k, v in m.snapshot(node, t).counters.items()
            if k[0] == "IO_RD_BYTES" and k[2])
        assert oss_rd == pytest.approx(client_rd, rel=1e-9)

    def test_single_spread_hits_one_oss(self):
        m = self.model("job 0 30 j1 c1", "io 0 30 j1 4M 0 single:o2")
        assert all(v == 0 for k, v in m.snapshot("o1", 10).counters.items() if k[2])
        o2 = sum(v for k, v in m.snapshot("o2", 10).counters.items()
                 if k[0] == "IO_RD_BYTES" and k[2])
        assert o2 == pytest.approx(4 * MI * 10)

    def test_meta_counts_floor_monotone(self):
        m = self.model("job 0 30 j1 c1", "meta 0 30 j1 7 open:2,stat:1")
        prev = 0
        for t in range(0, 31, 3):
            snap = m.snapshot("m1", t)
            count = snap.counted.get(("op", "open"), 0)
            assert count == int(count)
            assert count >= prev
            assert count <= 7 * (2 / 3) * t + 1
            prev = count

    def test_paths_weights_are_rates(self):
        m = self.model("job 0 30 j1 c1", "paths 0 30 j1 /a:2,/b:0.5")
        snap = m.snapshot("m1", 20)
        assert snap.counted[("path", "/a")] == 40
        assert snap.counted[("path", "/b")] == 10

    def test_active_mds_selected_by_seed(self):
        m0 = self.model("job 0 30 j1 c1", "meta 0 30 j1 5 open:1", seed=0)
        assert m0.active_mds == "m1"

    def test_load_windows(self):
        m = self.model("load c1 5 10 60 30")
        assert m.snapshot("c1", 7).gauges[("LOAD_CPU_PCT", "")] == 60
        assert m.snapshot("c1", 12).gauges[("LOAD_CPU_PCT", "")] == 0

    def test_jobmap_text(self):
        m = self.model("job 0 10 j2 c2", "job 5 20 j1 c1")
        assert m.jobmap_text(7) == "j1 c1\nj2 c2\n"
        assert m.jobmap_text(15) == "j1 c1\n"
        assert m.jobmap_text(25) == ""

    def test_io_clamped_to_job_interval(self):
        m = self.model("job 5 15 j1 c1", "io 0 30 j1 1M 0 roundrobin")
        rd_end = sum(v for k, v in m.snapshot("c1", 30).counters.items()
                     if k[0] == "IO_RD_BYTES")
        assert rd_end == pytest.approx(1 * MI * 10)  # only 10s inside the job


def reference_oss_io(model, node, t):
    """An OSS's io counters by a scan of every flow and client, in script order."""
    fs, counters, io_bytes = model.fs_of[node], {}, 0.0
    mine = set(model.topology.domain_of_node(node).osts_of(node))
    for flow in model.flows:
        if flow is None or _overlap(t, flow.start, flow.end) <= 0:
            continue
        ov, share = _overlap(t, flow.start, flow.end), 1.0 / len(flow.osts)
        for ost in (o for o in flow.osts if o in mine):
            for client in flow.nodes:
                rd, wr = flow.read_bps * ov * share, flow.write_bps * ov * share
                for raw, value in (("IO_RD_BYTES", rd), ("IO_WR_BYTES", wr)):
                    key = (raw, fs, ost, flow.job_id, client)
                    counters[key] = counters.get(key, 0.0) + value
                io_bytes += rd + wr
    return counters, float(math.floor(io_bytes / RPC_BYTES))


def model_of_testbed(seed):
    spec = load_scenario(resolve_scenario_path("testbed.cfg"))
    return WorkloadModel(spec.topology, spec.workload, seed), spec.duration


def model_of_uneven_flows(seed):
    # one job's flows overlap on every OST with rates whose float sums
    # depend on the order they are added in
    workload = parse_workload(lines(
        "job 0 30 j1 c1 c2", "io 0 30 j1 0.1 0.3 roundrobin",
        "io 3 20 j1 1.7e6 0.01 roundrobin", "io 1 29 j1 0.7 0.2 single:o2",
        "io 2 25 j1 1e-3 3.3 roundrobin"))
    return WorkloadModel(TOPO, workload, seed), 30


@pytest.mark.parametrize("make, seed", [(model_of_testbed, 0), (model_of_testbed, 3),
                                        (model_of_uneven_flows, 0), (model_of_uneven_flows, 1)])
def test_oss_snapshot_equals_a_scan_of_every_flow(make, seed):
    model, duration = make(seed)
    servers = model.topology.servers("oss")
    for node in [*servers, model.topology.domain_of_node(servers[0]).manager_node]:
        for t in range(0, duration + 1, 3):
            counters = model.snapshot(node, t).counters
            want, reqs = reference_oss_io(model, node, t)
            assert {k: v for k, v in counters.items() if k[2]} == want  # bit for bit
            assert counters[("RPC_REQS", model.fs_of[node], "", "", "")] == reqs


def test_an_oss_snapshot_visits_only_the_flows_on_its_osts():
    model, _duration = model_of_testbed(0)
    servers = model.topology.servers("oss")
    visits = [len(model.server_flows_of.get(node, ())) for node in servers]
    assert 0 < sum(visits) < len(servers) * sum(f is not None for f in model.flows)


def test_counters_carry_their_own_domains_filesystem():
    spec = parse_scenario(TWO_FILESYSTEMS)
    model = WorkloadModel(spec.topology, spec.workload, spec.seed)
    want = {"c1": "knot2", "a1": "alpha", "o1": "knot2", "p1": "alpha", "m1": "knot2",
            "r1": ""}
    for node, fs in want.items():
        counters = model.snapshot(node, 10).counters
        assert counters and {key[1] for key in counters} == {fs}, node


def test_roundrobin_io_stays_on_the_osts_of_its_filesystem():
    spec = parse_scenario(TWO_FILESYSTEMS)
    model = WorkloadModel(spec.topology, spec.workload, spec.seed)
    assert {key[2] for key in model.snapshot("c1", 10).counters} \
        == {"", "knot2-OST0000", "knot2-OST0001"}
    assert {key[3] for key in model.snapshot("p1", 10).counters} == {"", "ja"}
    assert {key[3] for key in model.snapshot("o1", 10).counters} == {"", "jk"}
    # no OSS domain serves alpha: its io lands on no OST
    text = TWO_FILESYSTEMS.replace("single:p1", "roundrobin").replace(
        "fs = alpha\nosts", "fs = knot2\nosts")
    spec = parse_scenario(text)
    model = WorkloadModel(spec.topology, spec.workload, spec.seed)
    assert {key[2] for key in model.snapshot("a1", 10).counters} == {"", "-"}


def test_every_filesystem_io_stream_carries_its_clients():
    from melt.simharness import SimCluster, oracle_aggregate

    cluster = SimCluster(parse_scenario(TWO_FILESYSTEMS))
    cluster.advance(cluster.spec.duration)
    result = cluster.result()
    sids = {spec.name: sid for sid, spec in result.streams.items()}
    for fs, groups in (("knot2", {"jk"}), ("alpha", {"ja"})):
        records = [r for r in cluster.daemon.records if r.stream_id == sids[f"meltmon/{fs}/io"]]
        assert records
        seen = set()
        for record in records:
            body = assert_body_matches_oracle(
                record, oracle_aggregate(result, record.stream_id, record.round))
            seen |= {group for group, _metric in body.entries}
        assert seen == groups, fs


def test_a_partial_snapshot_is_the_whole_one_cut_to_its_names():
    from melt import catalog
    from melt.agent import read_names
    from melt.meltmon import default_stream_specs

    model, duration = model_of_testbed(0)
    name_sets = {read_names((d.name,)) for d in catalog.CATALOG}
    name_sets |= {read_names(spec.metric_names) for spec in default_stream_specs(model.topology)}
    name_sets.discard(frozenset())

    def bits(values, names):
        return {k: repr(v) for k, v in values.items() if k[0] in names}

    for node in model.topology.all_nodes():
        for t in range(duration + 1):
            whole = model.snapshot(node, t)
            assert model.snapshot(node, t, None) == whole
            for names in name_sets:
                part = model.snapshot(node, t, names)
                if model.topology.domain_of_node(node).lustre_role != "client":
                    # servers and routers are whole
                    assert part == whole
                    continue
                assert bits(part.counters, names) == bits(whole.counters, names)
                assert bits(part.gauges, names) == bits(whole.gauges, names)
                assert {k[0] for k in [*part.counters, *part.gauges]} <= names


SHARED_NAME_SETS = (CLIENT_NAMES, read_names(("IO_RD_BW",)),
                    read_names(("IO_WR_BW", "META_OP_RATE", "LOAD_CPU_PCT")))


def with_own_classes(spec, rng):
    """``spec`` with a load event for one client, and, if a client runs no
    job, a job with io of its own for it; (spec, load node, own-job node)."""
    clients = [n for n in spec.topology.all_nodes()
               if spec.topology.domain_of_node(n).lustre_role == "client"]
    in_jobs = {n for job in spec.workload.jobs for n in job.nodes}
    loaded = rng.choice(clients)
    idle = [n for n in clients if n not in in_jobs and n != loaded]
    alone = rng.choice(idle) if idle else None
    jobs, io = spec.workload.jobs, spec.workload.io
    if alone is not None:
        jobs += (JobEvent(0, spec.duration, "job.own", (alone,)),)
        io += (IoEvent(0, spec.duration, "job.own", 3 * MI, MI, "roundrobin"),)
    workload = WorkloadScript(jobs, io, spec.workload.meta, spec.workload.paths,
                              (LoadEvent(loaded, 1, spec.duration - 2, 40.0, 20.0),))
    return dataclasses.replace(spec, workload=workload), loaded, alone


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_the_clients_of_one_class_share_a_snapshot_equal_to_a_fresh_one(seed, data):
    """At ticks drawn in any order, every client snapshot equals, field for
    field, the one a fresh model gives; two clients of one job, or two that
    run none, get the same object, and a client with a load event or a job
    of its own shares its snapshot with no other."""
    rng = random.Random(seed)
    spec, loaded, alone = with_own_classes(random_scenario(rng, max_leaves=24), rng)
    model = WorkloadModel(spec.topology, spec.workload, spec.seed)
    clients = [n for n in spec.topology.all_nodes()
               if spec.topology.domain_of_node(n).lustre_role == "client"]
    job_of = {n: job.job_id for job in spec.workload.jobs for n in job.nodes}
    ticks = data.draw(st.lists(st.integers(0, spec.duration), min_size=1, max_size=6))
    for t in ticks:
        names = data.draw(st.sampled_from(SHARED_NAME_SETS))
        snaps = {node: model.snapshot(node, t, names) for node in clients}
        for node, snap in snaps.items():
            fresh = WorkloadModel(spec.topology, spec.workload, spec.seed)
            assert snap == fresh.snapshot(node, t, names)
            assert snap is model.snapshot(node, t, names)
        for a in clients:
            for b in clients:
                shared = a == b or (loaded not in (a, b) and job_of.get(a) == job_of.get(b))
                assert (snaps[a] is snaps[b]) == shared, (a, b)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32))
def test_no_agent_changes_a_shared_snapshot(seed):
    """After every round of a random scenario, each snapshot that a client's
    agent was handed still equals a copy made when it was handed out, and a
    fresh model's snapshot of that client, tick and names."""
    rng = random.Random(seed)
    spec, _loaded, _alone = with_own_classes(random_scenario(rng, max_leaves=24), rng)
    cluster = SimCluster(spec)
    handed: list[tuple] = []  # (node, t, names, snapshot, its copy then)
    snapshot = cluster.model.snapshot

    def recording(node, t, names=None):
        snap = snapshot(node, t, names)
        if cluster.model.role_of[node] == "client":
            handed.append((node, t, names, snap, copy.deepcopy(snap)))
        return snap

    cluster.model.snapshot = recording
    driver = cluster.add_client(DriverClient("shared"))
    for stream in [*random_stream_specs(rng, spec.topology), io_stream_spec(
            name="s/own", metrics=("IO_RD_BW", "IO_WR_BW", "LOAD_CPU_PCT"),
            group_by="client")]:
        create_stream(cluster.handle, driver, stream)
    cluster.advance(spec.duration)
    assert handed
    fresh = WorkloadModel(spec.topology, spec.workload, spec.seed)
    for node, t, names, snap, then in handed:
        assert snap == then
        assert then == fresh.snapshot(node, t, names)
