"""Job map parsing and scheduler adapters.

Input grammar, one line per running job::

    <job_id> <node> <node> ...

A node may belong to at most one job. The whole input must parse, or the
previous epoch is kept. Adapters: a file read in place, or a command whose
standard output speaks the same grammar.
"""

from __future__ import annotations

import subprocess

COMMAND_TIMEOUT_SECS = 10.0


class JobMapParseError(ValueError):
    pass


def parse_jobmap_text(text: str, source: str = "<jobmap>") -> dict[str, tuple[str, ...]]:
    jobs: dict[str, tuple[str, ...]] = {}
    owner: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise JobMapParseError(f"{source}:{lineno}: job line needs an id and nodes")
        job_id, nodes = parts[0], tuple(parts[1:])
        if job_id in jobs:
            raise JobMapParseError(f"{source}:{lineno}: duplicate job {job_id}")
        for node in nodes:
            if node in owner:
                raise JobMapParseError(
                    f"{source}:{lineno}: node {node} already in job {owner[node]}")
            owner[node] = job_id
        jobs[job_id] = nodes
    return jobs


def jobs_changed(a: dict[str, tuple[str, ...]], b: dict[str, tuple[str, ...]]) -> bool:
    """Membership comparison; node order within a job does not matter."""
    if a.keys() != b.keys():
        return True
    return any(set(a[j]) != set(b[j]) for j in a)


class FileJobSource:
    def __init__(self, path: str) -> None:
        self.path = path

    def read(self) -> str:
        with open(self.path, encoding="utf-8") as fh:
            return fh.read()


class CommandJobSource:
    def __init__(self, argv: list[str]) -> None:
        if not argv:
            raise ValueError("command adapter needs an argv")
        self.argv = argv

    def read(self) -> str:
        result = subprocess.run(self.argv, capture_output=True, text=True,
                                timeout=COMMAND_TIMEOUT_SECS)
        if result.returncode != 0:
            raise JobMapParseError(
                f"job command {self.argv[0]} exited {result.returncode}")
        return result.stdout


class WorkloadJobSource:
    """In-simulation adapter fed by the scenario's workload model."""

    def __init__(self, model, clock) -> None:
        self.model = model
        self.clock = clock  # callable returning the logical time

    def read(self) -> str:
        return self.model.jobmap_text(self.clock())


def parse_adapter_spec(text: str):
    """``file:<path>`` or ``cmd:<argv...>`` from the command line."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise ValueError(f"bad job map adapter {text!r}, want file:<path> or cmd:<argv>")
    if kind == "file":
        return FileJobSource(rest)
    if kind == "cmd":
        return CommandJobSource(rest.split())
    raise ValueError(f"unknown job map adapter kind {kind!r}")
