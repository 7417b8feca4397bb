"""Daemon behavior: default streams, log grammar, restart drain, polling."""

from __future__ import annotations

import pytest

from melt.jobmap import WorkloadJobSource
from melt.meltmon import (
    LOG_LINE_RE, LogSink, MeltmonCore, default_stream_specs, format_log_line,
    format_log_timestamp, parse_log_line, write_log_record,
)
from melt.scenario import DEFAULT_BASE_TIME, load_scenario
from melt.overlay import RECORDS_KEPT
from melt.simharness import SimCluster, resolve_scenario_path

from simutil import ONE_DOMAIN, attach_agents, make_sim, run_ticks

MI = 1024 * 1024


def make_testbed_cluster():
    spec = load_scenario(resolve_scenario_path("testbed.cfg"))
    return SimCluster(spec)


class TestLogLineGrammar:
    def test_hand_built_line(self):
        # oracle: the expected text assembled by hand
        line = format_log_line(
            DEFAULT_BASE_TIME, "skein", 123, "job=tait.1111",
            [("IO_RD_BW", 20 * MI, "bytes_per_sec"),
             ("IO_WR_BW", 0, "bytes_per_sec"),
             ("IO_CLNT_NUM", 256, "count")])
        assert line == ("Jan 15 11:22:33 skein melt[123]: job=tait.1111 "
                        "IO_RD_BW=20M/s IO_WR_BW=0B/s IO_CLNT_NUM=256")
        assert LOG_LINE_RE.match(line)

    def test_day_space_padded(self):
        assert format_log_timestamp(DEFAULT_BASE_TIME - 14 * 86400).startswith("Jan  1 ")

    def test_parse_roundtrip_within_quantization(self):
        values = [("IO_RD_BW", 693 * MI + 12345, "bytes_per_sec"),
                  ("IO_CLNT_AVG_RD_TIME", 0.0639, "seconds")]
        line = format_log_line(DEFAULT_BASE_TIME + 10, "skein", 99, "job=j1", values)
        stamp, host, pair, parsed = parse_log_line(line)
        assert stamp == "Jan 15 11:22:43"
        assert host == "skein"
        assert pair == ("job", "j1")
        for name, value, _unit in values:
            assert parsed[name] == pytest.approx(value, rel=0.051)

    def test_sink_appends_to_disk(self, tmp_path):
        sink = LogSink("melt-test.log", str(tmp_path))
        write_log_record(sink, DEFAULT_BASE_TIME, "h", 1, "job=x",
                         [("IO_RD_BW", 0, "bytes_per_sec")])
        sink.close()
        assert (tmp_path / "melt-test.log").read_text().count("\n") == 1


def test_long_running_daemon_keeps_flat_memory(tmp_path):
    host, handle, model = make_sim(
        ONE_DOMAIN, ("job 0 100000 j1 n1", "io 0 100000 j1 1M 1M roundrobin"))
    attach_agents(handle, model)
    clock = [0]
    daemon = MeltmonCore(handle.topology, WorkloadJobSource(model, lambda: clock[0]),
                         log_dir=str(tmp_path), poll_secs=60,
                         base_time=DEFAULT_BASE_TIME)
    handle.add_client(daemon)
    host.pump()
    sizes = []
    for t in range(1, 3601):
        clock[0] = t
        host.tick(t)
        if t % 600 == 0:
            sizes.append((len(daemon.records),
                          sum(len(s.lines) for s in daemon.sinks.values())))
    daemon.close()
    # four 10 s class streams: 1440 records, past the cap
    assert sizes[-1] == (RECORDS_KEPT, 0)
    assert all(n <= RECORDS_KEPT and kept == 0 for n, kept in sizes)
    assert daemon.records[-1].round == 3600
    written = (tmp_path / "melt-knot2.log").read_text().splitlines()
    assert len(written) == 720  # one j1 row per io and rpc round; lock and meta are empty
    assert all(LOG_LINE_RE.match(line) for line in written)


class TestDefaultStreams:
    def test_testbed_stream_set(self):
        cluster = make_testbed_cluster()
        specs = default_stream_specs(cluster.spec.topology)
        # 1 fs x 4 classes + 8 oss + 2 mds servers
        assert len(specs) == 14
        cluster.advance(1)
        assert sorted(cluster.handle.root.streams) == list(range(1, 15))
        names = {s.spec.name for s in cluster.handle.root.streams.values()}
        assert "meltmon/knot2/io" in names
        assert "meltmon/srv/oss03" in names

    def test_restart_does_not_duplicate(self):
        cluster = make_testbed_cluster()
        cluster.advance(1)
        cluster.handle.detach_client("meltmon")
        from melt.jobmap import WorkloadJobSource
        second = MeltmonCore(cluster.spec.topology,
                             WorkloadJobSource(cluster.model, lambda: cluster.now),
                             poll_secs=5, base_time=cluster.spec.base_time)
        cluster.add_client(second)
        cluster.advance(1)
        assert len(cluster.handle.root.streams) == 14
        assert sorted(second.my_streams) == list(range(1, 15))


class TestLogsFromScenario:
    def test_every_line_matches_grammar(self):
        cluster = make_testbed_cluster()
        cluster.advance(30)
        result = cluster.result()
        all_lines = [ln for lines in result.logs.values() for ln in lines]
        assert all_lines
        for line in all_lines:
            assert LOG_LINE_RE.match(line), line

    def test_job_groups_and_zero_rendering(self):
        cluster = make_testbed_cluster()
        cluster.advance(20)
        lines = cluster.result().logs["melt-knot2.log"]
        jobs = {parse_log_line(ln)[2][1] for ln in lines}
        assert {"tait.1111", "tait.1113", "euler.2001", "unassigned"} <= jobs
        zero_wr = [ln for ln in lines if "IO_WR_BW=0B/s" in ln]
        assert zero_wr  # idle groups render explicit zeros

    def test_restart_drains_buffered_rounds(self):
        cluster = make_testbed_cluster()
        cluster.advance(1)
        cluster.handle.detach_client("meltmon")
        cluster.advance(40)  # several io rounds pile up in the root buffers

        from melt.jobmap import WorkloadJobSource
        second = MeltmonCore(cluster.spec.topology,
                             WorkloadJobSource(cluster.model, lambda: cluster.now),
                             poll_secs=5, base_time=cluster.spec.base_time)
        cluster.add_client(second)
        cluster.advance(12)

        lines = second.sinks["melt-knot2.log"].lines
        io_stamps = [parse_log_line(ln)[0] for ln in lines if "IO_RD_BW=" in ln]
        # buffered rounds 10..40 first, then live rounds, strictly ordered
        assert io_stamps == sorted(io_stamps)
        assert io_stamps[0] == format_log_timestamp(cluster.spec.base_time + 10)
        assert format_log_timestamp(cluster.spec.base_time + 50) in io_stamps


class FakeJobSource:
    def __init__(self, texts):
        self.texts = list(texts)

    def read(self):
        if len(self.texts) > 1:
            return self.texts.pop(0)
        if isinstance(self.texts[0], Exception):
            raise self.texts[0]
        return self.texts[0]


class TestPolling:
    def make_daemon(self, texts):
        from melt.topology import parse_topology
        from simutil import ONE_DOMAIN
        topo = parse_topology(ONE_DOMAIN)
        return MeltmonCore(topo, FakeJobSource(texts), poll_secs=5)

    def epochs_sent(self, daemon):
        from melt import wire
        return [m.epoch for _l, m in daemon.outbox if isinstance(m, wire.JobMapUpdate)]

    def test_epoch_bumps_only_on_change(self):
        daemon = self.make_daemon(["j1 n1\n", "j1 n1\n", "j1 n1 n2\n"])
        daemon.poll_jobs(0)
        daemon.poll_jobs(5)   # unchanged file: no new epoch
        daemon.poll_jobs(10)  # membership changed
        assert self.epochs_sent(daemon) == [1, 2]

    def test_parse_failure_keeps_epoch(self):
        daemon = self.make_daemon(["j1 n1\n", "j1 n1\nj2 n1\n", "j1 n1 n2\n"])
        daemon.poll_jobs(0)
        daemon.poll_jobs(5)   # overlapping nodes: rejected, epoch kept
        assert daemon.epoch == 1
        assert daemon.warnings
        daemon.poll_jobs(10)
        assert daemon.epoch == 2

    def test_unreadable_source_keeps_epoch(self):
        daemon = self.make_daemon(["j1 n1\n"])
        daemon.poll_jobs(0)
        daemon.job_source = FakeJobSource([OSError("gone")])
        daemon.poll_jobs(5)
        assert daemon.epoch == 1
        assert "gone" in daemon.warnings[-1]
