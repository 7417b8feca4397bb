"""The persistent monitoring daemon and the performance-log grammar.

meltmon attaches to the session root, creates the default summary streams
(one per filesystem and metric class, grouped by job, plus one per server),
polls the job scheduler adapter, multicasts job maps, and appends one log
line per (round, group) to its performance logs::

    MMM DD HH:MM:SS <host> melt[<pid>]: job=<id> KEY=VAL KEY=VAL ...

Filesystem streams log to ``melt-<fsname>.log``; per-server streams log to
``melt-srv-<node>.log`` with a ``server=<node>`` group pair. Streams survive
daemon restarts: a restarting daemon is handed its existing stream ids back
and drains whatever the root buffered while it was away.
"""

from __future__ import annotations

import datetime as _dt
import os
import re
import socket
import sys

from . import catalog, wire
from .aggregates import SummaryBody, body_from_text, display_value
from .humanize import humanize, parse_human
from .jobmap import jobs_changed, parse_adapter_spec, parse_jobmap_text
from .overlay import ClientCore
from .streams import StreamSpec, parse_target
from .topology import OverlayTopology

MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
          "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")

LOG_LINE_RE = re.compile(
    r"^(Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec) "
    r"[ \d]\d \d{2}:\d{2}:\d{2} \S+ melt\[\d+\]: "
    r"[A-Za-z_]+=\S+( [A-Z][A-Z0-9_]*=\S+)*$")

def format_log_timestamp(epoch_secs: int) -> str:
    """``Jan 15 11:22:33`` with a space-padded day, UTC."""
    stamp = _dt.datetime.fromtimestamp(epoch_secs, tz=_dt.timezone.utc)
    return (f"{MONTHS[stamp.month - 1]} {stamp.day:2d} "
            f"{stamp.hour:02d}:{stamp.minute:02d}:{stamp.second:02d}")


def group_pair(spec: StreamSpec, group: str) -> str:
    """The ``job=tait.1111`` style pair naming a record row."""
    if spec.group_by != "none":
        return f"{spec.group_by}={group or 'unassigned'}"
    target = parse_target(spec.target)
    if target.name is None:
        return f"{target.kind}=all"
    return spec.target


def format_log_line(epoch_secs: int, host: str, pid: int, pair: str,
                    values: list[tuple[str, float, str]]) -> str:
    """One performance-log line; values render compact-humanized."""
    parts = [f"{format_log_timestamp(epoch_secs)} {host} melt[{pid}]: {pair}"]
    parts.extend(f"{name}={humanize(value, unit, 'compact')}"
                 for name, value, unit in values)
    return " ".join(parts)


def parse_log_line(line: str) -> tuple[str, str, tuple[str, str], dict[str, float]]:
    """Invert :func:`format_log_line` up to humanize quantization."""
    if not LOG_LINE_RE.match(line):
        raise ValueError(f"line does not match the log grammar: {line!r}")
    head, _, rest = line.partition("]: ")
    stamp = head[:15]
    host = head[16:head.index(" melt[")]
    tokens = rest.split(" ")
    group_label, _, group = tokens[0].partition("=")
    values = {}
    for token in tokens[1:]:
        key, _, text = token.partition("=")
        values[key] = parse_human(text)
    return stamp, host, (group_label, group), values


class LogSink:
    """Append-only performance log: a file in ``directory``, or else lines
    kept in memory."""

    def __init__(self, name: str, directory: str | None = None) -> None:
        self.name = name
        self.lines: list[str] = []
        self._fh = open(os.path.join(directory, name), "a", encoding="utf-8") \
            if directory else None

    def write(self, line: str) -> None:
        if self._fh is None:
            self.lines.append(line)
        else:
            self._fh.write(line + "\n")
            self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def write_log_record(sink: LogSink, epoch_secs: int, host: str, pid: int,
                     pair: str, values: list[tuple[str, float, str]]) -> str:
    line = format_log_line(epoch_secs, host, pid, pair, values)
    sink.write(line)
    return line


def default_stream_specs(topology: OverlayTopology) -> list[StreamSpec]:
    """The daemon's default streams, in deterministic creation order."""
    specs = []
    for fs in topology.filesystems():
        for cls in ("io", "lock", "meta", "rpc"):
            metrics = tuple(d.name for d in catalog.metrics_for_class(cls))
            specs.append(StreamSpec(
                0, f"meltmon/{fs}/{cls}", f"fs={fs}", metrics, "summary", (),
                "job", catalog.CLASS_INTERVALS[cls], 1024))
    for role in ("oss", "mds"):
        for node in topology.servers(role):
            classes = catalog.ROLE_CLASSES[role]
            metrics = tuple(d.name for d in catalog.CATALOG
                            if d.metric_class in classes and role in d.roles
                            and d.metric_class not in catalog.COUNTED_CLASSES)
            specs.append(StreamSpec(
                0, f"meltmon/srv/{node}", f"{role}={node}", metrics, "summary", (),
                "none", 10, 1024))
    return specs


class MeltmonCore(ClientCore):
    """Session-client event loop of the daemon; host-agnostic."""

    def __init__(self, topology: OverlayTopology, job_source,
                 log_dir: str | None = None, hostname: str | None = None,
                 pid: int | None = None, poll_secs: int = 60,
                 base_time: int | None = 0) -> None:
        # base_time None stamps records with the daemon's wall clock at
        # arrival (socket mode); an explicit base maps logical rounds to
        # deterministic timestamps (simulation)
        super().__init__("client.meltmon", "meltmon")
        self.topology = topology
        self.job_source = job_source
        self.log_dir = log_dir
        self.hostname = hostname or topology.root_node
        self.log_pid = pid if pid is not None else 123
        self.poll_secs = poll_secs
        self.base_time = base_time
        self.sinks: dict[str, LogSink] = {}
        self.my_streams: dict[int, StreamSpec] = {}
        self.jobs: dict[str, tuple[str, ...]] | None = None
        self.epoch = 0
        self.warnings: list[str] = []
        self.clock = 0

    # --- startup -----------------------------------------------------------------

    def on_attached(self) -> None:
        self.poll_jobs(self.clock)
        for spec in default_stream_specs(self.topology):
            self.create_stream(spec)

    def on_stream_created(self, stream_id: int) -> None:
        self.my_streams[stream_id] = self.specs[stream_id]
        self.subscribe(stream_id)

    # --- logging --------------------------------------------------------------------

    def sink_for(self, spec: StreamSpec) -> LogSink:
        target = parse_target(spec.target)
        if target.kind == "fs":
            name = f"melt-{target.name or 'all'}.log"
        else:
            name = f"melt-srv-{target.name}.log"
        if name not in self.sinks:
            self.sinks[name] = LogSink(name, self.log_dir)
        return self.sinks[name]

    def on_record(self, record: wire.Data) -> None:
        spec = self.my_streams.get(record.stream_id)
        if spec is None:
            return
        body = body_from_text(record.aggregate_body)
        if not isinstance(body, SummaryBody):
            return
        sink = self.sink_for(spec)
        if self.base_time is None:
            import time
            stamp = int(time.time())
        else:
            stamp = self.base_time + record.round
        for group in body.groups():
            values = [(name, display_value(body, group, name), catalog.metric(name).unit)
                      for name in spec.metric_names]
            write_log_record(sink, stamp, self.hostname, self.log_pid,
                             group_pair(spec, group), values)

    # --- job scheduler polling ----------------------------------------------------------

    def poll_jobs(self, now: int) -> None:
        try:
            text = self.job_source.read()
            jobs = parse_jobmap_text(text)
        except Exception as exc:  # adapter or parse failure keeps the old epoch
            self.warnings.append(f"job map poll failed, keeping epoch {self.epoch}: {exc}")
            self.note("jobmap-poll-failed", str(exc))
            return
        if self.jobs is not None and not jobs_changed(self.jobs, jobs):
            return
        self.jobs = jobs
        self.epoch += 1
        entries = tuple(sorted((job, tuple(nodes)) for job, nodes in jobs.items()))
        self.emit("up", wire.JobMapUpdate(self.epoch, entries))

    def on_tick(self, now: int) -> None:
        self.clock = now
        if self.attached and now > 0 and now % self.poll_secs == 0:
            self.poll_jobs(now)

    def close(self) -> None:
        for sink in self.sinks.values():
            sink.close()


def main(argv: list[str] | None = None) -> int:
    """Socket-mode daemon entry point."""
    from .sockethost import parse_flags, run_core
    from .topology import load_topology

    args = sys.argv[1:] if argv is None else argv
    try:
        flags = parse_flags(args, ("connect", "config", "jobmap", "poll", "log-dir"),
                            ("connect", "config", "jobmap"))
        topology = load_topology(flags["config"])
        job_source = parse_adapter_spec(flags["jobmap"])
    except (ValueError, OSError) as exc:
        print(f"meltmon: {exc}", file=sys.stderr)
        return 1
    poll_text = flags.get("poll", "60s")
    if not poll_text.endswith("s") or not poll_text[:-1].isdigit() or int(poll_text[:-1]) < 1:
        print(f"meltmon: bad --poll value {poll_text!r}, want <int>s of at least 1s",
              file=sys.stderr)
        return 1
    daemon = MeltmonCore(topology, job_source, log_dir=flags.get("log-dir"),
                         hostname=socket.gethostname(), pid=os.getpid(),
                         poll_secs=int(poll_text[:-1]), base_time=None)

    def goodbye() -> None:
        daemon.detach()
        daemon.close()

    def step() -> bool:
        for text in daemon.warnings:
            print(f"meltmon: {text}", file=sys.stderr)
        daemon.warnings.clear()
        return False

    return run_core("meltmon", daemon, flags["connect"], goodbye, step)
