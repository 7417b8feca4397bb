"""The interactive ``melt`` command line tool.

Usage: ``melt [options] target mode classes [mode-opts]`` where target is
``fs[=name] | job=id | oss=name | mds=name | clnt=name``, mode is ``status``
or ``top``, and classes is a comma list (or ``all`` in status mode). Options:
``-group= -format= -delay= -topk= -topmetric= -metrics= --connect= -once``.

The tool follows the common session action patterns: subscribe to an
existing default stream when target, classes, grouping, and interval line
up; otherwise create a custom stream; and when the requested delay beats
the stream interval, temporarily raise the sampling rate, withdrawing the
override on clean exit.

Exit codes: 0 success, 1 usage error, 2 session/connection error, 3 unknown
target object.
"""

from __future__ import annotations

import os
import socket
import sys
from collections import deque

from . import catalog, wire
from .aggregates import SummaryBody, body_from_text, display_value, select_topk
from .overlay import RECORDS_KEPT, ClientCore
from .render import Column, RenderFrame, render
from .streams import StreamSpec, Target, parse_target
from .wire import Data

# target/mode rows: which metric classes each accepts
MATRIX: dict[tuple[str, str], tuple[str, ...]] = {
    ("fs", "status"): ("io", "lock", "meta", "rpc"),
    ("fs", "top"): ("io", "lock", "meta", "rpc"),
    ("job", "status"): ("io", "meta"),
    ("job", "top"): ("io", "meta"),
    ("oss", "status"): ("io", "lock", "rpc"),
    ("oss", "top"): ("io", "lock", "rpc"),
    ("mds", "status"): ("lock", "meta"),
    ("mds", "top"): ("client", "op", "path"),
    ("clnt", "status"): ("io", "meta", "load", "rpc"),
    ("clnt", "top"): ("io", "meta", "load", "rpc"),
}

GROUP_OPTIONS: dict[tuple[str, str], tuple[str, ...]] = {
    ("fs", "status"): ("server", "job"),
    ("fs", "top"): ("server", "job"),
    ("job", "status"): ("server",),
    ("job", "top"): ("server",),
    ("oss", "status"): ("client", "job", "ost"),
    ("oss", "top"): ("client", "job", "ost"),
    ("mds", "status"): ("client", "job"),
    ("mds", "top"): (),
    ("clnt", "status"): ("server", "job"),
    ("clnt", "top"): ("server", "job"),
}

FORMATS = ("human", "csv", "kv", "log")
DEFAULT_DELAY = 60
DEFAULT_TOPK = 10


class UsageError(ValueError):
    pass


def _matrix_row_text(kind: str, mode: str) -> str:
    return f"matrix row: {kind} {mode} accepts {', '.join(MATRIX[(kind, mode)])}"


def parse_duration(text: str) -> int:
    if len(text) < 2 or not text[:-1].isdigit() or text[-1] not in "smh" \
            or int(text[:-1]) < 1:
        raise UsageError(f"bad duration {text!r}, want <int><s|m|h> of at least 1s")
    return int(text[:-1]) * {"s": 1, "m": 60, "h": 3600}[text[-1]]


class CliInvocation:
    """A parsed and matrix-validated command line."""

    def __init__(self, target: Target, mode: str, classes: tuple[str, ...],
                 group: str, fmt: str, delay: int, topk: int,
                 topmetric: str, metrics: tuple[str, ...], once: bool,
                 connect: str | None) -> None:
        self.target = target
        self.mode = mode
        self.classes = classes
        self.group = group
        self.format = fmt
        self.delay = delay
        self.topk = topk
        self.topmetric = topmetric
        self.metrics = metrics
        self.once = once
        self.connect = connect

    @property
    def counted(self) -> bool:
        return self.mode == "top" and self.target.kind == "mds"


def parse_cli(argv: list[str]) -> CliInvocation:
    flags: dict[str, str] = {}
    once = False
    positional: list[str] = []
    for token in argv:
        if token == "-once":
            once = True
        elif token.startswith("--connect="):
            flags["connect"] = token[len("--connect="):]
        elif token.startswith("-") and not token.lstrip("-").isdigit():
            key, sep, value = token[1:].partition("=")
            if not sep or key not in ("group", "format", "delay", "topk",
                                      "topmetric", "metrics"):
                raise UsageError(f"unknown option {token!r}")
            flags[key] = value
        else:
            positional.append(token)

    if len(positional) != 3:
        raise UsageError("usage: melt [options] target mode classes [mode-opts]")
    target_text, mode, classes_text = positional
    try:
        target = parse_target(target_text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if mode not in ("status", "top"):
        raise UsageError(f"unknown mode {mode!r}, want status or top")
    row = MATRIX.get((target.kind, mode))
    if row is None:
        raise UsageError(f"target {target.kind!r} does not support mode {mode!r}")

    if classes_text == "all":
        if mode != "status":
            raise UsageError(f"'all' is only valid in status mode "
                             f"({_matrix_row_text(target.kind, mode)})")
        classes = row
    else:
        classes = tuple(c for c in classes_text.split(",") if c)
        if not classes:
            raise UsageError("no metric classes given")
        for cls in classes:
            if cls not in catalog.CLASSES:
                raise UsageError(f"unknown metric class {cls!r}")
            if cls not in row:
                raise UsageError(f"class {cls!r} is not valid for target "
                                 f"{target.kind!r} ({_matrix_row_text(target.kind, mode)})")

    group = flags.get("group", "none")
    if group != "none":
        allowed = GROUP_OPTIONS[(target.kind, mode)]
        if group not in allowed:
            raise UsageError(
                f"group {group!r} is not valid for {target.kind} {mode}"
                + (f" (allowed: {', '.join(allowed)})" if allowed else " (no grouping)"))

    fmt = flags.get("format", "human")
    if fmt not in FORMATS:
        raise UsageError(f"unknown format {fmt!r}, want one of {', '.join(FORMATS)}")

    delay = parse_duration(flags["delay"]) if "delay" in flags else DEFAULT_DELAY
    if "topk" in flags:
        if mode != "top":
            raise UsageError("-topk only applies to top mode")
        try:
            topk = int(flags["topk"])
        except ValueError:
            raise UsageError(f"bad -topk value {flags['topk']!r}") from None
        if topk < 1:
            raise UsageError("-topk must be >= 1")
    else:
        topk = DEFAULT_TOPK

    counted = mode == "top" and target.kind == "mds"
    if counted:
        if len(classes) != 1:
            raise UsageError("mds top takes exactly one of client, op, path")
        default_metrics = (catalog.COUNTED_CLASS_METRIC[classes[0]],)
    else:
        default_metrics = tuple(d.name for d in catalog.CATALOG
                                if d.metric_class in classes)

    if "metrics" in flags:
        metrics = tuple(m for m in flags["metrics"].split(",") if m)
        for m in metrics:
            if m not in catalog.BY_NAME:
                raise UsageError(f"unknown metric {m!r} (see the catalog table)")
            if catalog.metric(m).metric_class not in classes:
                raise UsageError(f"metric {m} is outside the selected classes "
                                 f"{','.join(classes)}")
        if not metrics:
            raise UsageError("-metrics= needs at least one name")
    else:
        metrics = default_metrics

    topmetric = flags.get("topmetric", metrics[0])
    if topmetric not in catalog.BY_NAME:
        raise UsageError(f"unknown metric {topmetric!r}")
    if catalog.metric(topmetric).metric_class not in classes:
        raise UsageError(f"-topmetric {topmetric} is outside the selected classes")

    return CliInvocation(target, mode, classes, group, fmt, delay, topk,
                         topmetric, metrics, once, flags.get("connect"))


GROUP_COLUMN = {"job": "JOB", "client": "CLIENT", "ost": "OST", "server": "SERVER"}
COUNTED_COLUMN = {"client": "CLIENT", "op": "OP", "path": "PATH"}


class CliCore(ClientCore):
    """Session-side engine that drives one invocation and yields frames."""

    def __init__(self, invocation: CliInvocation, client_name: str = "melt",
                 base_time: int | None = 0, hostname: str | None = None,
                 pid: int | None = None) -> None:
        # base_time None uses the wall clock per frame (socket mode); an
        # explicit base maps logical rounds deterministically (simulation)
        super().__init__(f"client.{client_name}", client_name)
        self.inv = invocation
        self.base_time = base_time
        self.hostname = hostname or socket.gethostname()
        self.log_pid = pid if pid is not None else os.getpid()
        self.planned = False
        self.done = False
        self.exit_code: int | None = None
        self.failure = ""
        self.pattern = ""
        self.subscribed: dict[int, tuple[str, str]] = {}  # sid -> (fs label, class)
        self.pending_custom = False
        self.overridden: list[tuple[int, tuple[str, ...]]] = []
        self.latest: dict[int, Data] = {}
        self.next_frame_round = 0
        self.frames_emitted = 0
        # the latest RECORDS_KEPT frames, and their texts not yet taken
        self.frames: deque[RenderFrame] = deque(maxlen=RECORDS_KEPT)
        self.rendered: deque[str] = deque(maxlen=RECORDS_KEPT)
        self.warnings: list[str] = []  # stderr lines not yet written
        self.clock = 0

    # --- planning -------------------------------------------------------------

    def fail(self, code: int, message: str) -> None:
        self.exit_code = code
        self.failure = message
        self.done = True

    def class_of_metric(self, name: str) -> str:
        return catalog.metric(name).metric_class

    def plan(self) -> None:
        self.planned = True
        inv = self.inv
        if inv.target.kind == "job" and self.jobmap is not None:
            known = {job for job, _ in self.jobmap.entries}
            if inv.target.name not in known:
                self.fail(3, f"unknown job {inv.target.name!r}")
                return
        matches = self.find_matching_streams()
        if matches is not None:
            self.pattern = "subscribe-existing"
            for sid, scope in matches:
                self.subscribed[sid] = scope
                self.subscribe(sid)
            intervals = [self.specs[sid].interval_secs for sid, _ in matches]
            if inv.delay < min(intervals):
                for sid, _scope in matches:
                    wanted = tuple(m for m in inv.metrics
                                   if m in self.specs[sid].metric_names)
                    self.set_rate(sid, wanted, inv.delay)
                    self.overridden.append((sid, wanted))
            return
        self.pattern = "create-custom"
        self.pending_custom = True
        name = (f"melt/{inv.target}/{inv.mode}/{','.join(inv.classes)}"
                f"/g={inv.group}/i={inv.delay}")
        aggregation = "counted-key" if inv.counted else "summary"
        self.create_stream(StreamSpec(
            0, name, str(inv.target), inv.metrics, aggregation, (),
            "none" if inv.counted else inv.group, inv.delay, 1024))

    def find_matching_streams(self) -> list[tuple[int, tuple[str, str]]] | None:
        """Existing streams that cover the invocation, or None."""
        inv = self.inv
        if inv.counted:
            return None
        if inv.target.kind == "fs" and inv.target.name is None:
            scopes = sorted({parse_target(s.target).name
                             for s in self.specs.values()
                             if parse_target(s.target).kind == "fs"
                             and parse_target(s.target).name})
            if not scopes:
                return None
            targets = [(f"fs={fs}", fs) for fs in scopes]
        else:
            targets = [(str(inv.target), inv.target.name or "")]
        found = []
        for target_text, fs_label in targets:
            for cls in inv.classes:
                wanted = [m for m in inv.metrics if self.class_of_metric(m) == cls]
                if not wanted:
                    continue
                match = None
                for sid in sorted(self.specs):
                    spec = self.specs[sid]
                    if (spec.target == target_text
                            and spec.group_by == inv.group
                            and spec.aggregation == "summary"
                            and spec.interval_secs == catalog.CLASS_INTERVALS[cls]
                            and all(m in spec.metric_names for m in wanted)):
                        match = sid
                        break
                if match is None:
                    return None
                found.append((match, (fs_label, cls)))
        return found or None

    # --- session events ----------------------------------------------------------

    def on_stream_created(self, stream_id: int) -> None:
        if self.pending_custom:
            self.pending_custom = False
            self.subscribed[stream_id] = ("", "custom")
            self.subscribe(stream_id)

    def on_error(self, error: wire.Error) -> None:
        if error.code == "unknown-target":
            self.fail(3, error.text)
        elif error.code == "merge-fault":  # one round lost; the next may arrive
            self.warnings.append(f"{error.code}: {error.text}")
        else:
            self.fail(1, f"{error.code}: {error.text}")

    def on_record(self, record: Data) -> None:
        if record.stream_id not in self.subscribed:
            return
        self.latest[record.stream_id] = record
        self.maybe_emit_frame()

    # --- frame production ------------------------------------------------------------

    def on_tick(self, now: int) -> None:
        self.clock = now
        if self.done:
            return
        if not self.planned and self.attached:
            self.plan()

    def maybe_emit_frame(self) -> None:
        """One frame per delay period, keyed to completed rounds."""
        if self.done or not self.subscribed:
            return
        if not all(sid in self.latest for sid in self.subscribed):
            return
        round_at = min(r.round for r in self.latest.values())
        if self.inv.once:
            # a single-shot frame waits for a round somebody contributed to
            if all(r.actual_contributors == 0 for r in self.latest.values()):
                return
        elif round_at < self.next_frame_round:
            return
        frame = self.build_frame()
        self.frames.append(frame)
        self.frames_emitted += 1
        include_header = self.frames_emitted == 1 and self.inv.format in ("human", "csv")
        self.rendered.append(render(frame, self.inv.format, include_header,
                                    host=self.hostname, pid=self.log_pid))
        self.next_frame_round = round_at + self.inv.delay
        if self.inv.once:
            self.finish()

    def finish(self) -> None:
        if self.done:
            return
        for sid, metrics in self.overridden:
            self.set_rate(sid, metrics, 0)
        self.overridden.clear()
        self.detach()
        self.done = True
        if self.exit_code is None:
            self.exit_code = 0

    # --- frame layout ----------------------------------------------------------------

    def _epoch(self, round_at: int) -> int:
        if self.base_time is None:
            import time
            return int(time.time())
        return self.base_time + round_at

    def metric_columns(self) -> list[Column]:
        cols = []
        for name in self.inv.metrics:
            d = catalog.metric(name)
            cols.append(Column(name, d.label, "metric", d.unit))
        return cols

    def build_frame(self) -> RenderFrame:
        inv = self.inv
        round_at = max(r.round for r in self.latest.values())
        epoch = self._epoch(round_at)
        if inv.mode == "top":
            frame = self.build_top_frame()
        else:
            frame = self.build_status_frame()
        frame.epoch_secs = epoch
        return frame

    def build_status_frame(self) -> RenderFrame:
        inv = self.inv
        scopes = sorted({scope[0] for scope in self.subscribed.values()})
        multi_fs = inv.target.kind == "fs" and inv.target.name is None and \
            len(scopes) > 1
        columns = [Column("TIME", "TIME", "time")]
        if multi_fs:
            columns.append(Column("FS", "FS", "text"))
        if inv.group != "none":
            label = GROUP_COLUMN[inv.group]
            columns.append(Column(label, label, "text"))
        columns.extend(self.metric_columns())

        rows = []
        for fs_label in scopes:
            bodies: dict[str, SummaryBody] = {}
            round_at = 0
            for sid, (fs, _cls) in sorted(self.subscribed.items()):
                if fs != fs_label:
                    continue
                record = self.latest[sid]
                round_at = max(round_at, record.round)
                body = body_from_text(record.aggregate_body)
                if isinstance(body, SummaryBody):
                    spec = self.specs.get(sid)
                    names = spec.metric_names if spec else self.inv.metrics
                    for metric in names:
                        bodies[metric] = body
            if inv.group != "none":
                groups = sorted({g for body in bodies.values() for g in body.groups()})
            else:
                groups = [""]
            for group in groups:
                row: list = [self._epoch(round_at)]
                if multi_fs:
                    row.append(fs_label)
                if inv.group != "none":
                    row.append(group or "unassigned")
                for metric in inv.metrics:
                    body = bodies.get(metric)
                    row.append(display_value(body, group, metric) if body else 0.0)
                rows.append(row)
        return RenderFrame(columns, rows)

    def build_top_frame(self) -> RenderFrame:
        inv = self.inv
        sid = sorted(self.subscribed)[0]
        record = self.latest[sid]
        body = body_from_text(record.aggregate_body)
        if inv.counted:
            label = COUNTED_COLUMN[inv.classes[0]]
            columns = [Column(label, label, "text"), Column("COUNT", "COUNT", "count")]
            rows = [[key, count] for key, count in select_topk(body, inv.topk)]
            return RenderFrame(columns, rows)
        label = GROUP_COLUMN.get(inv.group, "GROUP")
        columns = [Column(label, label, "text")] + self.metric_columns()
        rows = []
        if isinstance(body, SummaryBody) and body.entries:
            for group, _value in select_topk(body, inv.topk, inv.topmetric):
                rows.append([group or "unassigned"]
                            + [display_value(body, group, m) for m in inv.metrics])
        return RenderFrame(columns, rows)


def main(argv: list[str] | None = None) -> int:
    from .sockethost import run_core

    args = sys.argv[1:] if argv is None else argv
    try:
        inv = parse_cli(args)
    except UsageError as exc:
        print(f"melt: {exc}", file=sys.stderr)
        return 1
    if not inv.connect:
        print("melt: --connect=<root endpoint> is required", file=sys.stderr)
        return 1
    core = CliCore(inv, base_time=None)

    def step() -> bool:
        while core.rendered:
            print(core.rendered.popleft())
        for text in core.warnings:
            print(f"melt: {text}", file=sys.stderr)
        core.warnings.clear()
        return core.done

    code = run_core("melt", core, inv.connect, core.finish, step)
    if code is not None:
        return code
    if core.failure:
        print(f"melt: {core.failure}", file=sys.stderr)
    return core.exit_code or 0
