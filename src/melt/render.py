"""Frame rendering in the four output formats: human, csv, kv, log.

Human tables align columns and humanize values ("692 MB/s"); csv carries
raw base-unit numbers at full precision under metric-name headers; kv emits
``KEY=VAL`` pairs with compact values; log reuses the performance-log line
grammar of the monitoring daemon.
"""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

from .humanize import humanize
from .meltmon import format_log_line


@dataclass(frozen=True)
class Column:
    key: str            # TIME, FS, JOB/CLIENT/OST/SERVER, or a metric name
    label: str          # header text (display label for metrics)
    kind: str           # time | text | metric | count
    unit: str = "count"


@dataclass
class RenderFrame:
    """One refresh of a status or top display."""

    columns: list[Column]
    rows: list[list]            # cell per column; floats for metrics, str for text
    epoch_secs: int = 0         # wall-clock of the underlying round

    def header_labels(self) -> list[str]:
        return [c.label for c in self.columns]


def _time_text(epoch_secs: int) -> str:
    stamp = _dt.datetime.fromtimestamp(epoch_secs, tz=_dt.timezone.utc)
    return f"{stamp.hour:02d}:{stamp.minute:02d}:{stamp.second:02d}"


def _raw_text(value) -> str:
    if isinstance(value, str):
        return value
    if value == int(value):
        return str(int(value))
    return repr(value)


def _cell_text(column: Column, value, style: str) -> str:
    if column.kind == "time":
        return _time_text(int(value))
    if column.kind == "text":
        return str(value)
    return humanize(value, column.unit, style)


def render_human(frame: RenderFrame, include_header: bool = True) -> str:
    table = []
    if include_header:
        table.append(frame.header_labels())
    for row in frame.rows:
        table.append([_cell_text(col, cell, "human")
                      for col, cell in zip(frame.columns, row)])
    if not table:  # no rows and no header: nothing to align
        return ""
    widths = [max(len(r[i]) for r in table) for i in range(len(frame.columns))]
    lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip()
             for row in table]
    return "\n".join(lines)


def render_csv(frame: RenderFrame, include_header: bool = True) -> str:
    lines = []
    if include_header:
        lines.append(",".join(c.key for c in frame.columns))
    for row in frame.rows:
        cells = []
        for col, cell in zip(frame.columns, row):
            if col.kind == "time":
                cells.append(_time_text(int(cell)))
            else:
                cells.append(_raw_text(cell))
        lines.append(",".join(cells))
    return "\n".join(lines)


def render_kv(frame: RenderFrame) -> str:
    lines = []
    for row in frame.rows:
        pairs = []
        for col, cell in zip(frame.columns, row):
            if col.kind == "time":
                pairs.append(f"TIME={_time_text(int(cell))}")
            elif col.kind == "text":
                pairs.append(f"{col.key}={cell}")
            else:
                pairs.append(f"{col.key}={humanize(cell, col.unit, 'compact')}")
        lines.append(" ".join(pairs))
    return "\n".join(lines)


def render_log(frame: RenderFrame, host: str, pid: int) -> str:
    """Daemon-grammar lines; the group pair is the last text column, keyed
    by its lower-case name, or ``job=all`` when the frame has none."""
    texts = [i for i, col in enumerate(frame.columns) if col.kind == "text"]
    lines = []
    for row in frame.rows:
        pair = f"{frame.columns[texts[-1]].key.lower()}={row[texts[-1]]}" \
            if texts else "job=all"
        values = [(col.key, cell, col.unit) for col, cell in zip(frame.columns, row)
                  if col.kind not in ("time", "text")]
        lines.append(format_log_line(frame.epoch_secs, host, pid, pair, values))
    return "\n".join(lines)


def render(frame: RenderFrame, fmt: str, include_header: bool = True,
           host: str = "melt", pid: int = 0) -> str:
    if fmt == "human":
        return render_human(frame, include_header)
    if fmt == "csv":
        return render_csv(frame, include_header)
    if fmt == "kv":
        return render_kv(frame)
    if fmt == "log":
        return render_log(frame, host, pid)
    raise ValueError(f"unknown format {fmt!r}")
