"""Agent behavior: sampling arithmetic, overrides, job tagging, stats files."""

from __future__ import annotations

import pytest

from melt import wire
from melt.agent import (
    AgentConfig, AgentCore, SourceSnapshot, StatsFileSource,
    StatsParseError, read_names, read_stats_file,
)
from melt.aggregates import body_from_text

from simutil import (
    ONE_DOMAIN, add_driver, attach_agents, create_stream, io_stream_spec,
    make_sim, run_ticks,
)

MI = 1024 * 1024


def synthetic_sim(extra=(), interval=2):
    host, handle, model = make_sim(
        ONE_DOMAIN, ("job 0 40 j1 n1", "io 0 40 j1 1M 1M roundrobin") + tuple(extra))
    attach_agents(handle, model)
    client = add_driver(handle)
    sid = create_stream(handle, client, io_stream_spec(
        metrics=("IO_RD_BW", "IO_WR_BW"), interval=interval))
    client.subscribe(sid)
    host.flush(client)
    host.pump()
    return host, handle, client, sid


class TestSampling:
    def test_steady_rate_every_round(self):
        host, handle, client, sid = synthetic_sim(interval=2)
        run_ticks(host, 1, 8)
        assert [r.round for r in client.records] == [2, 4, 6, 8]
        for record in client.records:
            body = body_from_text(record.aggregate_body)
            assert body.entries[("", "IO_WR_BW")].sum == pytest.approx(MI, rel=1e-9)

    def test_metric_not_due_between_rounds(self):
        host, handle, client, sid = synthetic_sim(interval=10)
        run_ticks(host, 1, 9)
        assert not client.records
        run_ticks(host, 10, 1)
        assert [r.round for r in client.records] == [10]

    def test_emitted_metrics_stay_inside_role_catalog(self):
        host, handle, client, sid = synthetic_sim()
        run_ticks(host, 1, 4)
        from melt.catalog import catalog_for_role
        allowed = {d.name for d in catalog_for_role("client")}
        for ev in host.transcript:
            if ev[0] == "sample":
                assert ev[5] in allowed


class TestJobTagging:
    def test_samples_tagged_with_job(self):
        host, handle, model = make_sim(
            ONE_DOMAIN, ("job 0 40 tait.1234 n1", "io 0 40 tait.1234 1M 0 roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(group_by="job", interval=2))
        client.emit("up", wire.JobMapUpdate(1, (("tait.1234", ("n1",)),)))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 2)
        body = body_from_text(client.records[-1].aggregate_body)
        assert ("tait.1234", "IO_RD_BW") in body.entries

    def test_unassigned_when_no_job(self):
        host, handle, model = make_sim(
            ONE_DOMAIN, ("job 0 40 j1 n1", "io 0 40 j1 1M 0 roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(group_by="job", interval=2))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 2)  # no job map distributed
        body = body_from_text(client.records[-1].aggregate_body)
        assert ("unassigned", "IO_RD_BW") in body.entries

    def test_stale_epoch_ignored(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        agent = handle.agents["n1"]
        agent.apply_job_map(wire.JobMapUpdate(7, (("late", ("n1",)),)))
        agent.apply_job_map(wire.JobMapUpdate(5, (("early", ("n1",)),)))
        assert agent.my_job == "late"
        assert agent.jobmap_epoch == 7


class TestRateOverrides:
    def test_override_drops_and_clears(self):
        host, handle, client, sid = synthetic_sim(interval=10)
        agent = handle.agents["n1"]
        assert agent.stream_interval(sid) == 10

        client.set_rate(sid, ("IO_RD_BW", "IO_WR_BW"), 2)
        host.flush(client)
        host.pump()
        assert agent.stream_interval(sid) == 2

        client.set_rate(sid, ("IO_RD_BW", "IO_WR_BW"), 0)
        host.flush(client)
        host.pump()
        assert agent.stream_interval(sid) == 10

    def test_override_never_slows_sampling(self):
        host, handle, client, sid = synthetic_sim(interval=2)
        agent = handle.agents["n1"]
        client.set_rate(sid, ("IO_RD_BW",), 30)
        host.flush(client)
        host.pump()
        # a larger requested interval does not win over the stream interval
        assert agent.stream_interval(sid) == 2

    def test_round_cadence_follows_override(self):
        host, handle, client, sid = synthetic_sim(interval=10)
        run_ticks(host, 1, 10)
        client.set_rate(sid, ("IO_RD_BW", "IO_WR_BW"), 5)
        host.flush(client)
        host.pump()
        run_ticks(host, 11, 10)
        assert [r.round for r in client.records] == [10, 15, 20]
        # windows reflect true elapsed time at the cadence change
        assert [r.window_secs for r in client.records] == [10, 5, 5]


class TestStatsFileGrammar:
    def write(self, tmp_path, text):
        path = tmp_path / "stats"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_counter_and_gauge_and_event(self, tmp_path):
        snap = read_stats_file(self.write(tmp_path, (
            "ts 100\n"
            "IO_RD_BYTES knot2 1048576\n"
            "IO_RD_BYTES knot2:knot2-OST0000 524288\n"
            "gauge LOAD_CPU_PCT 37.5\n"
            "event mkdir /proj/a c07\n"
            "event mkdir /proj/a c07\n"
            "event open /proj/b\n")))
        assert snap.ts == 100
        assert snap.counters[("IO_RD_BYTES", "knot2", "", "", "")] == 1048576
        assert snap.counters[("IO_RD_BYTES", "knot2", "knot2-OST0000", "", "")] == 524288
        assert snap.gauges[("LOAD_CPU_PCT", "")] == 37.5
        assert snap.counted[("op", "mkdir")] == 2
        assert snap.counted[("path", "/proj/a")] == 2
        assert snap.counted[("client", "c07")] == 2
        assert snap.counted[("op", "open")] == 1

    def test_duplicate_counter_rejected(self, tmp_path):
        path = self.write(tmp_path, "ts 1\nIO_RD_BYTES knot2 5\nIO_RD_BYTES knot2 9\n")
        with pytest.raises(StatsParseError, match=":3"):
            read_stats_file(path)

    def test_missing_header(self, tmp_path):
        with pytest.raises(StatsParseError, match="ts"):
            read_stats_file(self.write(tmp_path, "IO_RD_BYTES knot2 5\n"))

    def test_malformed_line_rejects_whole_file(self, tmp_path):
        path = self.write(tmp_path, "ts 1\nIO_RD_BYTES knot2\n")
        with pytest.raises(StatsParseError, match=":2"):
            read_stats_file(path)

    def test_bad_value(self, tmp_path):
        with pytest.raises(StatsParseError, match="banana"):
            read_stats_file(self.write(tmp_path, "ts 1\nIO_RD_BYTES knot2 banana\n"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("line, what", [("gauge IO_CLNT_DIRTY {}", "gauge"),
                                            ("IO_RD_BYTES knot2 {}", "counter")])
    def test_non_finite_value(self, tmp_path, line, what, value):
        path = self.write(tmp_path, f"ts 1\n{line.format(value)}\n")
        with pytest.raises(StatsParseError, match=f":2: bad {what} value '{value}'"):
            read_stats_file(path)


class TestStatsFileAgent:
    def stats_sim(self, tmp_path, metric="IO_WR_BW"):
        host, handle, model = make_sim(ONE_DOMAIN)
        path = tmp_path / "stats"
        path.write_text("ts 0\nIO_WR_BYTES knot2 0\n", encoding="utf-8")
        from melt.agent import AgentConfig, AgentCore
        config = AgentConfig.from_topology(handle.topology, "n1")
        agent = AgentCore(config, StatsFileSource(str(path)), handle.topology)
        handle.attach_agent(agent)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            metrics=(metric,), interval=2))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        return host, handle, client, sid, path, agent

    def test_counter_reset_suppresses_window(self, tmp_path):
        host, handle, client, sid, path, agent = self.stats_sim(tmp_path)
        path.write_text("ts 2\nIO_WR_BYTES knot2 2097152\n", encoding="utf-8")
        run_ticks(host, 1, 2)
        body = body_from_text(client.records[-1].aggregate_body)
        assert body.entries[("", "IO_WR_BW")].sum == pytest.approx(MI, rel=1e-9)

        # remount: counter goes backwards; window suppressed, flag recorded
        path.write_text("ts 4\nIO_WR_BYTES knot2 1024\n", encoding="utf-8")
        run_ticks(host, 3, 2)
        body = body_from_text(client.records[-1].aggregate_body)
        assert ("", "IO_WR_BW") not in body.entries
        assert ("IO_WR_BYTES", "knot2") in agent.reset_flags

        # next window resumes from the reset baseline
        path.write_text("ts 6\nIO_WR_BYTES knot2 1049600\n", encoding="utf-8")
        run_ticks(host, 5, 2)
        body = body_from_text(client.records[-1].aggregate_body)
        assert body.entries[("", "IO_WR_BW")].sum == pytest.approx(MI / 2, rel=1e-9)

    def test_unreadable_file_skips_tick_stays_attached(self, tmp_path):
        host, handle, client, sid, path, agent = self.stats_sim(tmp_path)
        path.unlink()
        run_ticks(host, 1, 2)
        assert not client.records
        assert agent.health_skips >= 1
        assert agent.attached

    @pytest.mark.parametrize("metric, line", [
        ("IO_CLNT_DIRTY", "gauge IO_CLNT_DIRTY nan"),
        ("IO_WR_BW", "IO_WR_BYTES knot2 inf"),
    ], ids=["nan-gauge", "inf-counter"])
    def test_non_finite_value_skips_tick_and_host_goes_on(self, tmp_path, metric, line):
        host, handle, client, sid, path, agent = self.stats_sim(tmp_path, metric)
        path.write_text(f"ts 2\n{line}\n", encoding="utf-8")
        run_ticks(host, 1, 2)
        assert agent.health_skips == 1
        (note,) = [ev for ev in host.transcript if ev[0] == "source-failure"]
        assert "bad" in note[-1] and line.split()[-1] in note[-1]
        # a good file again: the next round arrives
        path.write_text("ts 4\nIO_WR_BYTES knot2 0\ngauge IO_CLNT_DIRTY 5\n", encoding="utf-8")
        run_ticks(host, 3, 2)
        assert [r.round for r in client.records][-1] == 4
        assert agent.health_skips == 1


class TestNodeLoad:
    def test_load_gauges_pass_through(self):
        host, handle, model = make_sim(
            ONE_DOMAIN, ("load n1 0 40 37.5 42.0",))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="load", target="clnt=n1", metrics=("LOAD_CPU_PCT", "LOAD_MEM_PCT"),
            interval=2))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        run_ticks(host, 1, 2)
        body = body_from_text(client.records[-1].aggregate_body)
        assert body.entries[("", "LOAD_CPU_PCT")].sum == 37.5

    def test_a_reset_counter_is_noted_at_every_metric_that_reads_it(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="wr", target="clnt=n1", interval=2,
            metrics=("IO_WR_BW", "IO_CLNT_NUM", "IO_CLNT_AVG_WR_SZ", "IO_RD_BW")))
        agent = handle.agents["n1"]
        wr, ops, rd = (("IO_WR_BYTES", "knot2", "", "", ""), ("IO_WR_OPS", "knot2", "", "", ""),
                       ("IO_RD_BYTES", "knot2", "", "", ""))
        prev = SourceSnapshot(counters={wr: 100.0, ops: 1.0, rd: 0.0})
        snap = SourceSnapshot(counters={wr: 50.0, ops: 3.0, rd: 8.0})
        agent.notes.clear()
        agent.reset_flags.clear()
        tuples = agent.build_contributions(sid, snap, prev, 2)
        # IO_WR_BYTES is grouped once but read by three metrics
        assert agent.notes == [("counter-reset", agent.pid, "IO_WR_BYTES", "knot2")] * 3
        assert agent.reset_flags == [("IO_WR_BYTES", "knot2")] * 3
        assert tuples == [("", "IO_CLNT_NUM", 1.0, 1.0), ("", "IO_CLNT_AVG_WR_SZ", 0.0, 2.0),
                          ("", "IO_RD_BW", 4.0, 1.0)]

    def test_out_of_range_gauge_omitted(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="load", target="clnt=n1", metrics=("LOAD_CPU_PCT", "LOAD_MEM_PCT"),
            interval=2))
        agent = handle.agents["n1"]
        snap = SourceSnapshot(gauges={("LOAD_CPU_PCT", ""): 180.0,
                                      ("LOAD_MEM_PCT", ""): 20.0})
        tuples = agent.build_contributions(sid, snap, SourceSnapshot(), 2)
        assert tuples == [("", "LOAD_MEM_PCT", 20.0, 1.0)]
        assert any(n[0] == "gauge-out-of-range" for n in agent.notes)

    def test_router_reports_load_but_feeds_no_targets(self):
        text = ONE_DOMAIN.replace("role = client", "role = router").replace(
            "fs = knot2\n", "")
        host, handle, model = make_sim(text, ("load n1 0 40 12 30",))
        attach_agents(handle, model)
        assert model.snapshot("n1", 5).gauges[("LOAD_CPU_PCT", "")] == 12.0

        # a clnt target must name a client-role node
        client = add_driver(handle)
        client.create_stream(io_stream_spec(
            name="rl", target="clnt=n1", metrics=("LOAD_CPU_PCT",), interval=2))
        host.flush(client)
        host.pump()
        assert any(e.code == "unknown-target" for e in client.errors)

        # an fs-targeted stream is received but produces nothing on a router
        from melt.streams import StreamSpec, produced_metrics, AgentIdentity
        ident = AgentIdentity("n1", "router", ())
        spec = StreamSpec(9, "x", "fs", ("LOAD_CPU_PCT", "IO_RD_BW"))
        assert produced_metrics(spec, ident) == ()
        from melt.catalog import catalog_for_role
        assert {d.metric_class for d in catalog_for_role("router")} == {"rpc", "load"}


class TestGroupingPlan:
    def job_sim(self):
        host, handle, model = make_sim(ONE_DOMAIN, (
            "job 0 6 j1 n1", "job 6 40 j2 n1",
            "io 0 6 j1 1M 3M roundrobin", "io 6 40 j2 2M 5M roundrobin"))
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            metrics=("IO_RD_BW", "IO_WR_BW", "IO_CLNT_NUM"), group_by="job", interval=1))
        client.emit("up", wire.JobMapUpdate(1, (("j1", ("n1",)),)))
        client.subscribe(sid)
        host.flush(client)
        host.pump()
        return host, handle, client, sid

    def run_across_epochs(self):
        host, handle, client, sid = self.job_sim()
        prod = handle.agents["n1"].production[sid]
        plans = []
        for t in range(1, 13):
            if t == 7:  # the new epoch reaches the agent before round 7
                client.emit("up", wire.JobMapUpdate(2, (("j2", ("n1",)),)))
                host.flush(client)
                host.pump()
            run_ticks(host, t, 1)
            plans.append(prod.plan)
        return host, client, plans

    def test_the_plan_is_kept_until_the_job_map_epoch_changes(self):
        _host, _client, plans = self.run_across_epochs()
        assert len({id(plan) for plan in plans}) == 2
        assert plans[0] is plans[5] and plans[6] is plans[11] and plans[5] is not plans[6]

    def test_a_new_epoch_groups_the_next_round_as_a_plan_built_every_round(self, monkeypatch):
        host, client, _plans = self.run_across_epochs()
        groups = [{g for g, _m in body_from_text(r.aggregate_body).entries}
                  for r in client.records]
        assert groups[:6] == [{"j1"}] * 6 and groups[6:] == [{"j2"}] * 6

        built = AgentCore.plan

        def planned_anew(self, prod, spec, counters):
            prod.plan = None
            return built(self, prod, spec, counters)

        monkeypatch.setattr(AgentCore, "plan", planned_anew)
        fresh_host, fresh_client, fresh_plans = self.run_across_epochs()
        assert len({id(plan) for plan in fresh_plans}) == 12
        assert fresh_host.transcript == host.transcript
        assert fresh_client.records == client.records

    def test_a_new_epoch_that_keeps_the_agents_job_keeps_the_plan(self):
        host, handle, client, sid = self.job_sim()
        agent = handle.agents["n1"]
        run_ticks(host, 1, 3)
        plan = agent.production[sid].plan
        client.emit("up", wire.JobMapUpdate(2, (("j1", ("n1",)), ("j9", ("n2",)))))
        host.flush(client)
        host.pump()
        run_ticks(host, 4, 1)
        assert (agent.jobmap_epoch, agent.my_job) == (2, "j1")
        assert agent.production[sid].plan is plan

    def test_a_kept_plan_and_each_round_s_snapshot_share_their_counter_keys(self):
        """A synthetic client's snapshots reuse the same key objects round
        after round, so the keys a kept plan was built on are the very ones
        the agent's last snapshot holds, not equal copies of them."""
        host, handle, client, sid = synthetic_sim(interval=1)
        agent = handle.agents["n1"]
        prod = agent.production[sid]
        run_ticks(host, 1, 1)
        first, plan_keys = list(prod.prev.counters), prod.plan_keys
        run_ticks(host, 2, 1)
        second = list(prod.prev.counters)
        assert len(first) == 4 and first == second
        assert all(a is b for a, b in zip(first, second))
        assert prod.plan_keys is plan_keys
        assert {id(key) for key in prod.plan_keys} == {id(key) for key in second}
        model = agent.source.model
        early, late = model.snapshot("n1", 3, agent.names), model.snapshot("n1", 30, agent.names)
        assert [id(key) for key in early.counters] == [id(key) for key in late.counters]

    def test_the_testbed_builds_a_plan_in_at_most_a_third_of_its_uses(self, monkeypatch):
        from melt.scenario import load_scenario
        from melt.simharness import SimCluster, resolve_scenario_path

        built: list[bool] = []  # per use: was the plan built anew
        plan = AgentCore.plan

        def counted(self, prod, spec, counters):
            before = prod.plan
            after = plan(self, prod, spec, counters)
            built.append(after is not before)
            return after

        monkeypatch.setattr(AgentCore, "plan", counted)
        cluster = SimCluster(load_scenario(resolve_scenario_path("testbed.cfg")))
        cluster.add_cli(["-group=job", "fs", "status", "io", "-delay=5s"])
        cluster.advance(60)
        assert len(built) > 1000
        assert 3 * sum(built) <= len(built)

    def test_a_new_counter_key_rebuilds_the_plan(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="wr", target="clnt=n1", interval=2, metrics=("IO_WR_BW",)))
        agent = handle.agents["n1"]
        one = ("IO_WR_BYTES", "knot2", "", "", "")
        two = ("IO_WR_BYTES", "knot2", "knot2-OST0001", "", "")
        prev = SourceSnapshot(counters={one: 0.0})
        assert agent.build_contributions(sid, SourceSnapshot(counters={one: 4.0}), prev, 2) \
            == [("", "IO_WR_BW", 2.0, 1.0)]
        assert agent.build_contributions(
            sid, SourceSnapshot(counters={one: 4.0, two: 6.0}), prev, 2) \
            == [("", "IO_WR_BW", 5.0, 1.0)]
        assert [key for key, _group in agent.production[sid].plan["IO_WR_BYTES"]] == [one, two]

    def test_a_reset_is_noted_at_every_use_in_every_round(self):
        host, handle, model = make_sim(ONE_DOMAIN)
        attach_agents(handle, model)
        client = add_driver(handle)
        sid = create_stream(handle, client, io_stream_spec(
            name="wr", target="clnt=n1", interval=2,
            metrics=("IO_WR_BW", "IO_CLNT_NUM", "IO_CLNT_AVG_WR_SZ")))
        agent = handle.agents["n1"]
        wr, ops = ("IO_WR_BYTES", "knot2", "", "", ""), ("IO_WR_OPS", "knot2", "", "", "")
        prev = SourceSnapshot(counters={wr: 100.0, ops: 1.0})
        snap = SourceSnapshot(counters={wr: 50.0, ops: 3.0})
        plans = []
        for _round in range(3):
            agent.notes.clear()
            agent.build_contributions(sid, snap, prev, 2)
            assert agent.notes == [("counter-reset", agent.pid, "IO_WR_BYTES", "knot2")] * 3
            plans.append(agent.production[sid].plan)
        assert plans[0] is plans[1] is plans[2]


class RecordingSource:
    """The names each snapshot was asked for, over an idle source."""

    def __init__(self) -> None:
        self.asked: list[frozenset[str] | None] = []

    def snapshot(self, now, names=None):
        self.asked.append(names)
        return SourceSnapshot(ts=now)


def test_a_source_is_asked_for_the_names_every_stream_of_the_agent_reads():
    host, handle, model = make_sim(ONE_DOMAIN)
    source = RecordingSource()
    agent = AgentCore(AgentConfig.from_topology(handle.topology, "n1"), source, handle.topology)
    handle.attach_agent(agent)
    client = add_driver(handle)
    io_metrics, load_metrics = ("IO_RD_BW", "IO_CLNT_AVG_WR_SZ"), ("LOAD_CPU_PCT",)
    create_stream(handle, client, io_stream_spec(name="io", metrics=io_metrics, interval=2))
    create_stream(handle, client, io_stream_spec(name="load", metrics=load_metrics, interval=3))
    io_names = {"IO_RD_BYTES", "IO_WR_BYTES", "IO_WR_OPS"}
    assert read_names(io_metrics) == io_names and read_names(load_metrics) == {"LOAD_CPU_PCT"}
    every = io_names | {"LOAD_CPU_PCT"}
    assert source.asked == [io_names, every]  # each stream's baseline, as the set grows
    assert agent.names == every
    source.asked.clear()
    run_ticks(host, 1, 6)
    assert source.asked == [every] * 4  # the ticks where a stream is due: 2, 3, 4 and 6


def test_an_agent_parses_the_target_of_a_stream_it_produces_once(monkeypatch):
    from melt import agent as agent_module
    from melt import streams
    from melt.topology import parse_topology

    parsed = []
    parse = streams.parse_target

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    monkeypatch.setattr(streams, "parse_target", counting_parse)
    monkeypatch.setattr(agent_module, "parse_target", counting_parse)
    topology = parse_topology(ONE_DOMAIN)
    agent = AgentCore(AgentConfig.from_topology(topology, "n1"), RecordingSource(), topology)
    spec = io_stream_spec()
    agent.learn_stream(spec)
    assert spec.stream_id in agent.production and parsed == [spec.target]


def reference_produced_metrics(spec, agent) -> tuple[str, ...]:
    """produced_metrics as it was before it matched classes per metric: it
    built the set of names of the agent's role catalog for every call."""
    from melt import catalog
    from melt.streams import parse_target, producer_roles_for

    target = parse_target(spec.target)
    if target.kind in ("oss", "mds", "clnt"):
        if agent.node_id != target.name:
            return ()
    if target.kind == "fs" and target.name is not None:
        if target.name not in agent.filesystems:
            return ()
    out = []
    role_catalog = {d.name for d in catalog.catalog_for_role(agent.lustre_role)}
    for m in spec.metric_names:
        if agent.lustre_role not in producer_roles_for(target, m):
            continue
        if m in role_catalog:
            out.append(m)
    return tuple(out)


def per_metric_produced_metrics(spec, agent, parsed=None) -> tuple[str, ...]:
    """produced_metrics as it was before it read a (target kind, role)
    table: per metric, the role must be a producer role for the target and
    the metric's class one the role produces. A caller's already parsed
    target, when given, must be the spec's."""
    from melt import catalog
    from melt.streams import parse_target, producer_roles_for

    target = parse_target(spec.target)
    assert parsed is None or parsed == target
    if target.kind in ("oss", "mds", "clnt"):
        if agent.node_id != target.name:
            return ()
    if target.kind == "fs" and target.name is not None:
        if target.name not in agent.filesystems:
            return ()
    classes = catalog.ROLE_CLASSES.get(agent.lustre_role)
    if classes is None:
        raise ValueError(f"unknown lustre role {agent.lustre_role!r}")
    return tuple(m for m in spec.metric_names
                 if agent.lustre_role in producer_roles_for(target, m)
                 and catalog.metric(m).metric_class in classes)


def test_produced_metrics_matches_the_role_catalog_reference():
    """Every catalog metric, alone and all together, for every role (and an
    unknown one) under every target kind, named to match the agent or not:
    the same tuple, or the same ValueError, as both earlier rules."""
    from melt import catalog
    from melt.streams import AgentIdentity, StreamSpec, produced_metrics

    def outcome(fn, spec, agent):
        try:
            return fn(spec, agent)
        except ValueError as exc:
            return type(exc), str(exc)

    targets = ["fs", "fs=knot2", "fs=other", "job=j1"] + [
        f"{kind}={node}" for kind in ("oss", "mds", "clnt") for node in ("n1", "n2")]
    names = [d.name for d in catalog.CATALOG]
    metric_sets = [(m,) for m in names] + [tuple(names), tuple(reversed(names))]
    produced = errors = 0
    for role in [*catalog.ROLE_CLASSES, "tape-robot"]:
        agent = AgentIdentity("n1", role, ("knot2",))
        for target in targets:
            for metrics in metric_sets:
                spec = StreamSpec(1, "s", target, metrics)
                got = outcome(produced_metrics, spec, agent)
                assert got == outcome(reference_produced_metrics, spec, agent), (role, spec)
                assert got == outcome(per_metric_produced_metrics, spec, agent), (role, spec)
                produced += bool(got) and type(got[0]) is str
                errors += got == (ValueError, "unknown lustre role 'tape-robot'")
    assert produced and errors == 6 * len(metric_sets)  # the targets that reach the role


def test_a_metric_the_catalog_lacks_is_produced_by_no_agent():
    """The per-metric rule raised UnknownMetricError out of the agent, so a
    forged spec stopped the host; the table just has no such name."""
    from melt import catalog
    from melt.streams import AgentIdentity, StreamSpec, produced_metrics

    spec = StreamSpec(1, "s", "fs", ("IO_RD_BW", "NO_SUCH_METRIC"))
    agent = AgentIdentity("n1", "client", ("knot2",))
    assert produced_metrics(spec, agent) == ("IO_RD_BW",)
    with pytest.raises(catalog.UnknownMetricError):
        per_metric_produced_metrics(spec, agent)


def test_expected_producers_on_the_testbed_match_the_per_metric_rule(monkeypatch):
    """Every node of testbed.cfg, for each target kind there (named to match
    or not) and each catalog metric alone and all together."""
    from melt import catalog, streams
    from melt.scenario import parse_scenario
    from melt.simharness import resolve_scenario_path
    from melt.streams import StreamSpec, expected_producers

    with open(resolve_scenario_path("testbed.cfg"), encoding="utf-8") as fh:
        topology = parse_scenario(fh.read()).topology
    clients = [node for domain in topology.domains if domain.lustre_role == "client"
               for node in domain.member_nodes]
    targets = ["fs", "fs=knot2", "fs=other", "job=j1", "clnt=oss01"] + [
        f"{kind}={name}" for kind in ("oss", "mds") for name in topology.servers(kind)] + [
        f"clnt={node}" for node in clients[:2]]
    names = [d.name for d in catalog.CATALOG]
    specs = [StreamSpec(1, "s", target, metrics) for target in targets
             for metrics in [(m,) for m in names] + [tuple(names)]]
    got = [expected_producers(spec, topology) for spec in specs]
    monkeypatch.setattr(streams, "produced_metrics", per_metric_produced_metrics)
    assert got == [expected_producers(spec, topology) for spec in specs]
    assert sum(map(bool, got)) > len(targets)  # most targets have producers
