"""CLI grammar, matrix enforcement, rendering, and session patterns."""

from __future__ import annotations

import threading

import pytest

from melt import catalog
from melt.agent import AgentConfig, AgentCore
from melt.humanize import parse_human
from melt.meltcli import MATRIX, UsageError, main, parse_cli, parse_duration
from melt.meltmon import LOG_LINE_RE, parse_log_line
from melt.overlay import RECORDS_KEPT
from melt.render import Column, RenderFrame, render
from melt.scenario import (
    DEFAULT_BASE_TIME, SyntheticSource, WorkloadModel, load_scenario, parse_scenario,
    parse_workload,
)
from melt.simharness import SimCluster, resolve_scenario_path
from melt.sockethost import dial_core, serve_overlay
from melt.topology import parse_topology

from simutil import ONE_DOMAIN

MI = 1024 * 1024
GI = 1024 ** 3


class TestPublishedCommandLines:
    def test_logging_all_jobs(self):
        inv = parse_cli(["-group=job", "-format=log", "fs", "status", "io", "-delay=5m"])
        assert (inv.target.kind, inv.target.name) == ("fs", None)
        assert inv.mode == "status" and inv.classes == ("io",)
        assert inv.group == "job" and inv.format == "log"
        assert inv.delay == 300

    def test_top5_jobs_by_read_bw(self):
        inv = parse_cli(["-group=job", "fs=knot2", "top", "io", "-topk=5",
                         "-topmetric=IO_RD_BW",
                         "-metrics=IO_RD_BW,IO_CLNT_AVG_RD_SZ,IO_CLNT_AVG_RD_TIME"])
        assert str(inv.target) == "fs=knot2" and inv.mode == "top"
        assert inv.topk == 5 and inv.topmetric == "IO_RD_BW"
        assert inv.metrics == ("IO_RD_BW", "IO_CLNT_AVG_RD_SZ", "IO_CLNT_AVG_RD_TIME")

    def test_watch_one_job(self):
        inv = parse_cli(["job=tait.1234", "status", "io,meta", "-delay=30s",
                         "-metrics=IO_RD_BW,IO_WR_BW,META_OP_RATE"])
        assert str(inv.target) == "job=tait.1234"
        assert inv.classes == ("io", "meta") and inv.delay == 30
        assert inv.metrics == ("IO_RD_BW", "IO_WR_BW", "META_OP_RATE")


class TestMatrix:
    def test_every_valid_combination_accepted(self):
        for (kind, mode), classes in MATRIX.items():
            target = "fs" if kind == "fs" else f"{kind}=thing"
            for cls in classes:
                inv = parse_cli([target, mode, cls])
                assert inv.classes == (cls,)
            if mode == "status":
                inv = parse_cli([target, mode, "all"])
                assert inv.classes == classes
            if mode == "status" and len(classes) > 1:
                pair = ",".join(classes[:2])
                assert parse_cli([target, mode, pair]).classes == classes[:2]

    def test_every_invalid_class_rejected_with_row(self):
        for (kind, mode), classes in MATRIX.items():
            target = "fs" if kind == "fs" else f"{kind}=thing"
            for cls in catalog.CLASSES:
                if cls in classes:
                    continue
                with pytest.raises(UsageError, match="matrix row"):
                    parse_cli([target, mode, cls])

    @pytest.mark.parametrize("argv", [
        ["oss=oss3", "status", "meta"],
        ["mds=mds1", "top", "io"],
        ["job=j1", "status", "lock"],
        ["fs", "top", "all"],
        ["clnt=c1", "status", "op"],
    ])
    def test_spec_probes_rejected(self, argv):
        with pytest.raises(UsageError):
            parse_cli(argv)

    def test_group_restrictions(self):
        assert parse_cli(["-group=ost", "oss=o1", "status", "io"]).group == "ost"
        with pytest.raises(UsageError, match="group"):
            parse_cli(["-group=ost", "fs", "status", "io"])
        with pytest.raises(UsageError, match="group"):
            parse_cli(["-group=client", "mds=m1", "top", "path"])
        with pytest.raises(UsageError, match="group"):
            parse_cli(["-group=client", "job=j1", "status", "io"])

    def test_mds_top_single_class(self):
        assert parse_cli(["mds=m1", "top", "path"]).metrics == ("PATH_COUNT",)
        with pytest.raises(UsageError, match="exactly one"):
            parse_cli(["mds=m1", "top", "client,op"])


class TestOptionParsing:
    def test_durations(self):
        assert parse_duration("5m") == 300
        assert parse_duration("30s") == 30
        assert parse_duration("2h") == 7200
        for bad in ("5x", "s", "", "12", "m5"):
            with pytest.raises(UsageError):
                parse_duration(bad)

    def test_unknown_flag(self):
        with pytest.raises(UsageError, match="-colour"):
            parse_cli(["-colour=red", "fs", "status", "io"])

    def test_bad_target(self):
        with pytest.raises(UsageError):
            parse_cli(["disk=sda", "status", "io"])
        with pytest.raises(UsageError, match="requires"):
            parse_cli(["job", "status", "io"])

    def test_metrics_validation(self):
        with pytest.raises(UsageError, match="IO_FAKE"):
            parse_cli(["fs", "status", "io", "-metrics=IO_FAKE"])
        with pytest.raises(UsageError, match="outside the selected"):
            parse_cli(["fs", "status", "io", "-metrics=META_OP_RATE"])
        with pytest.raises(UsageError, match="outside the selected"):
            parse_cli(["fs", "top", "io", "-topmetric=META_OP_RATE"])

    def test_defaults(self):
        inv = parse_cli(["fs", "top", "io"])
        assert inv.delay == 60 and inv.topk == 10
        assert inv.topmetric == "IO_RD_BW"
        assert inv.group == "none" and inv.format == "human"
        assert inv.metrics == tuple(d.name for d in catalog.metrics_for_class("io"))

    def test_topk_only_in_top_mode(self):
        with pytest.raises(UsageError, match="topk"):
            parse_cli(["fs", "status", "io", "-topk=3"])


def status_frame():
    columns = [Column("TIME", "TIME", "time"),
               Column("IO_RD_BW", "RD_BW", "metric", "bytes_per_sec"),
               Column("IO_WR_BW", "WR_BW", "metric", "bytes_per_sec"),
               Column("META_OP_RATE", "MD_RATE", "metric", "ops_per_sec")]
    rows = [[DEFAULT_BASE_TIME, 692.0 * MI, 0.0, 64.0]]
    return RenderFrame(columns, rows, epoch_secs=DEFAULT_BASE_TIME)


class TestRenderers:
    def test_human_header_and_values(self):
        text = render(status_frame(), "human")
        header, row = text.splitlines()
        assert header.split() == ["TIME", "RD_BW", "WR_BW", "MD_RATE"]
        assert row.split("  ")[0] == "11:22:33"
        assert "692 MB/s" in row and "0 B/s" in row and "64 op/s" in row

    def test_csv_raw_base_units(self):
        text = render(status_frame(), "csv")
        assert text.splitlines()[0] == "TIME,IO_RD_BW,IO_WR_BW,META_OP_RATE"
        # 692 MiB/s in bytes, via the independent parse oracle
        assert text.splitlines()[1] == f"11:22:33,{692 * MI},0,64"
        assert parse_human("692 MB/s") == 692 * MI

    def test_kv_compact(self):
        text = render(status_frame(), "kv")
        assert text == "TIME=11:22:33 IO_RD_BW=692M/s IO_WR_BW=0B/s META_OP_RATE=64op/s"

    def test_log_matches_daemon_grammar(self):
        text = render(status_frame(), "log", host="skein", pid=123)
        assert LOG_LINE_RE.match(text)
        assert text.startswith("Jan 15 11:22:33 skein melt[123]: job=all")

    def test_csv_human_equivalence(self):
        from melt.humanize import humanize
        frame = status_frame()
        csv_row = render(frame, "csv", include_header=False).split(",")
        human_row = render(frame, "human", include_header=False)
        for raw, unit in zip(csv_row[1:], ("bytes_per_sec", "bytes_per_sec", "ops_per_sec")):
            assert humanize(float(raw), unit, "human") in human_row

    def test_a_frame_with_no_rows_and_no_header_renders_nothing(self):
        frame = RenderFrame([Column("TIME", "TIME", "time")], [])
        assert render(frame, "human", False) == render(frame, "csv", False) == ""
        assert render(frame, "human").split() == ["TIME"]


def run_cli(cluster, argv, ticks, name="melt"):
    core = cluster.add_cli(argv, name=name)
    cluster.advance(ticks)
    return core


class TestSessionPatterns:
    def make(self):
        spec = load_scenario(resolve_scenario_path("testbed.cfg"))
        return SimCluster(spec)

    def test_status_subscribes_existing_stream(self):
        cluster = self.make()
        core = run_cli(cluster, ["-group=job", "fs", "status", "io", "-delay=10s"], 21)
        assert core.pattern == "subscribe-existing"
        assert core.frames
        header = core.rendered[0].splitlines()[0].split()
        assert header[:2] == ["TIME", "JOB"]
        assert not core.overridden  # delay == interval: no rate override

    def test_custom_stream_for_job_target(self):
        cluster = self.make()
        core = run_cli(cluster, ["job=tait.1111", "status", "io,meta", "-delay=5s",
                                 "-metrics=IO_RD_BW,IO_WR_BW,META_OP_RATE"], 11)
        assert core.pattern == "create-custom"
        assert [f.epoch_secs for f in core.frames] == \
            [cluster.spec.base_time + 5, cluster.spec.base_time + 10]
        # single aggregate row for the target job, no group column
        assert core.rendered[0].splitlines()[0].split() == \
            ["TIME", "RD_BW", "WR_BW", "MD_RATE"]

    def test_unknown_job_exits_3(self):
        cluster = self.make()
        core = run_cli(cluster, ["job=ghost.1", "status", "io"], 2)
        assert core.exit_code == 3 and core.done

    def test_unknown_fs_exits_3(self):
        cluster = self.make()
        core = run_cli(cluster, ["fs=knot9", "status", "io"], 2)
        assert core.exit_code == 3

    def test_top_against_existing_grouped_stream(self):
        cluster = self.make()
        core = run_cli(cluster, ["-group=job", "fs=knot2", "top", "io",
                                 "-topk=2", "-topmetric=IO_WR_BW", "-once"], 11)
        assert core.done and core.exit_code == 0
        rows = core.frames[0].rows
        assert rows[0][0] == "tait.1111"  # 476 MiB/s write leads
        assert len(rows) == 2

    def test_mds_top_paths(self):
        cluster = self.make()
        core = run_cli(cluster, ["mds=mds1", "top", "path", "-topk=3",
                                 "-delay=10s", "-once"], 11)
        assert core.frames
        keys = [row[0] for row in core.frames[0].rows]
        assert keys[0] == "/proj/alpha/data"  # highest scripted access rate
        assert len(keys) <= 3

    def test_log_top_paths_pairs_path_with_its_count(self):
        cluster = self.make()
        core = run_cli(cluster, ["mds=mds1", "-format=log", "top", "path",
                                 "-delay=10s", "-once"], 11)
        rows = core.frames[0].rows
        lines = core.rendered[0].splitlines()
        assert rows and len(lines) == len(rows)
        for line, (path, count) in zip(lines, rows):
            assert LOG_LINE_RE.match(line)
            _stamp, _host, pair, values = parse_log_line(line)
            assert pair == ("path", path)
            assert values == {"COUNT": count}
        assert lines[0].split("]: ")[1].startswith("path=/proj/alpha/data COUNT=")

    def test_log_two_filesystems_pairs_job_not_filesystem(self):
        text = open(resolve_scenario_path("testbed.cfg"), encoding="utf-8").read()
        two_fs = text.replace("fs = knot2\n\n[domain conway]", "fs = alpha\n\n[domain conway]")
        assert two_fs != text
        cluster = SimCluster(parse_scenario(two_fs))
        core = run_cli(cluster, ["-group=job", "-format=log", "fs", "status", "io",
                                 "-delay=10s"], 21)
        assert [c.key for c in core.frames[0].columns[:3]] == ["TIME", "FS", "JOB"]
        rows = [row for frame in core.frames for row in frame.rows]
        lines = [line for text in core.rendered for line in text.splitlines()]
        assert len(lines) == len(rows)
        assert "tait.1111" in {row[2] for row in rows}
        for line, row in zip(lines, rows):
            assert parse_log_line(line)[2] == ("job", row[2])

    def test_human_session_outlives_its_jobs(self):
        cluster = self.make()
        core = run_cli(cluster, ["-group=client", "oss=oss03", "top", "io", "-delay=5s"], 80)
        assert core.exit_code is None and not core.done
        assert core.rendered[0].splitlines()[0].split()[:2] == ["CLIENT", "RD_BW"]
        # every job ended by 60 s: the frames after that carry no row
        assert [len(frame.rows) for frame in list(core.frames)[-4:]] == [0] * 4
        assert list(core.rendered)[-4:] == [""] * 4
        assert core.frames[-1].epoch_secs == cluster.spec.base_time + 80

    def test_long_session_keeps_only_the_latest_frames_and_texts(self):
        cluster = SimCluster(parse_scenario(ONE_DOMAIN + "[scenario]\nmeltmon = off\n"))
        core = run_cli(cluster, ["clnt=n1", "status", "io", "-delay=1s"], 2)
        first = core.rendered.popleft()  # taken, as melt's main takes what it prints
        assert first.splitlines()[0].split()[:2] == ["TIME", "RD_BW"]
        assert not core.rendered
        cluster.advance(RECORDS_KEPT + 10)
        assert core.frames_emitted == RECORDS_KEPT + 11
        assert len(core.frames) == len(core.rendered) == RECORDS_KEPT
        assert core.frames[-1].epoch_secs == cluster.spec.base_time + cluster.now
        # only the first frame carries the header, however many were taken
        assert all(len(text.splitlines()) == 1 for text in core.rendered)

    def test_once_withdraws_override_on_exit(self):
        cluster = self.make()
        core = run_cli(cluster, ["-group=job", "fs", "status", "io", "-delay=5s",
                                 "-once"], 11)
        agent = cluster.handle.agents["tait02"]
        sid = 1  # meltmon/knot2/io
        assert core.done
        assert agent.stream_interval(sid) == 10  # reverted after clean exit


class TestMainEntry:
    def test_usage_error_exit_1(self, capsys):
        assert main(["fs", "status", "nope"]) == 1
        assert capsys.readouterr().err == "melt: unknown metric class 'nope'\n"

    def test_missing_connect_exit_1(self):
        assert main(["fs", "status", "io"]) == 1

    def test_connect_refused_exit_2(self):
        assert main(["--connect=127.0.0.1:1", "fs", "status", "io"]) == 2

    def test_once_against_served_overlay(self, capsys):
        topology = parse_topology(ONE_DOMAIN)
        host, _handle, endpoints = serve_overlay(topology)
        model = WorkloadModel(topology, parse_workload([
            (1, "job 0 100000 j1 n1"), (2, "io 0 100000 j1 1M 0 roundrobin")]))
        agent = AgentCore(AgentConfig.from_topology(topology, "n1"),
                          SyntheticSource(model, "n1"), topology)
        agent_host, _up = dial_core(agent, endpoints["n1"])
        stop = threading.Event()
        threads = [threading.Thread(target=h.serve, daemon=True,
                                    kwargs=dict(logical_seconds=100000,
                                                wall_per_tick=tick, stop=stop))
                   for h, tick in ((host, 0.05), (agent_host, 0.01))]
        for thread in threads:
            thread.start()
        try:
            code = main([f"--connect={endpoints['@root']}", "clnt=n1", "status", "io",
                         "-once", "-metrics=IO_RD_BW"])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5)
            assert not any(thread.is_alive() for thread in threads)
            agent_host.close()
            host.close()
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2  # one frame: header and one row
        assert lines[0].split() == ["TIME", "RD_BW"]
