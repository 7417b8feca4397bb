"""Per-layer timing by wrapping the public functions of each melt module.

Nothing inside ``src/`` is instrumented. :func:`installed` replaces each
function or method named in :data:`LAYERS` with a timing wrapper, on the
defining module or class and on every other ``melt`` module that imported
the same object by name (``melt.overlay.body_from_text`` is the same
function as ``melt.aggregates.body_from_text``), and puts the originals
back on exit.

A wrapper records a span only while :attr:`Tracer.active` is set, so the
benchmark's own correctness checks, which call some of the same functions,
are not counted. Self time is a span's duration minus the time covered by
the wrapped spans directly inside it. A call nested directly inside a span
of the same layer name (``RootProcess.on_message`` calling
``GatherNode.on_message``) is folded into the outer span, so each message
counts once.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

from melt import aggregates, agent, meltcli, meltmon, overlay, render, scenario
from melt import simnet, sockethost, topology, transport, wire


def _nonempty(tracer, stat, args, result):
    if result:
        stat["useful"] += 1


def _accepted(tracer, stat, args, result):
    if result is not None:
        stat["useful"] += 1


def _result_len(key):
    def count(tracer, stat, args, result):
        stat[key] += len(result)
    return count


def _arg_len(index, key):
    def count(tracer, stat, args, result):
        stat[key] += len(args[index])
    return count


def _decoded(tracer, stat, args, result):
    stat["frames"] += len(result)
    stat["bytes"] += len(args[1])


def _tcp_sent(tracer, stat, args, result):
    tracer.stat(TCP_BYTES)["bytes"] += len(args[1])


def _tcp_received(tracer, stat, args, result):
    _nonempty(tracer, stat, args, result)
    tracer.stat(TCP_BYTES)["bytes"] += len(result)


# bytes that crossed a TCP socket in either direction, counted beside the
# transport.send / transport.recv spans
TCP_BYTES = "transport.tcp"

# (owner, attribute, layer name, extra counter or None). An owner is a
# module for plain functions and a class for methods.
LAYERS = [
    (scenario.WorkloadModel, "snapshot", "scenario.snapshot", None),
    (agent.AgentCore, "on_tick", "agent.tick", None),
    (agent.AgentCore, "build_contributions", "agent.contrib", _result_len("tuples")),
    (simnet.SimHost, "pump", "simnet.pump", None),
    (simnet.SimHost, "flush", "simnet.flush", None),
    (transport.SimChannelEnd, "try_recv", "transport.recv", _nonempty),
    (transport.TcpChannel, "try_recv", "transport.recv", _tcp_received),
    (transport.SimChannelEnd, "send", "transport.send", None),
    (transport.TcpChannel, "send", "transport.send", _tcp_sent),
    (overlay.GatherNode, "on_message", "overlay.on_message", None),
    (overlay.RootProcess, "on_message", "overlay.on_message", None),
    (overlay.ClientCore, "on_message", "overlay.on_message", None),
    (overlay.GatherNode, "on_tick", "overlay.on_tick", None),
    (overlay.GatherNode, "complete_round", "overlay.complete_round", None),
    (wire, "encode_message", "wire.encode", _result_len("bytes")),
    (wire.FrameDecoder, "feed", "wire.decode", _decoded),
    (aggregates, "body_from_text", "aggregates.parse", _arg_len(0, "bytes")),
    (aggregates, "merge_all", "aggregates.merge", None),
    (aggregates, "merge", "aggregates.merge", None),
    (aggregates, "body_to_text", "aggregates.text", _result_len("bytes")),
    (aggregates, "fold_samples", "aggregates.fold", None),
    (meltmon.MeltmonCore, "on_record", "meltmon.record", None),
    (meltcli.CliCore, "on_record", "meltcli.record", None),
    (render, "render", "render", None),
    (sockethost.SocketHost, "pump", "sockethost.pump", None),
    (transport.TcpListener, "accept", "sockethost.accept", _accepted),
    (topology, "parse_topology", "topology.parse", None),
    (topology, "parse_sections", "topology.parse", None),
    (topology, "topology_from_sections", "topology.parse", None),
]


class Tracer:
    """Span stack and per-layer totals; counts only while ``active``."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, dict[str, int]] = {}
        self._stack: list[list] = []  # [layer name, ns covered by child spans]

    def stat(self, name: str) -> dict[str, int]:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = {"calls": 0, "self_ns": 0, "useful": 0,
                                       "bytes": 0, "frames": 0, "tuples": 0}
        return stat

    def wrap(self, fn, name: str, counter):
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += span
                stat = tracer.stat(name)
                stat["calls"] += 1
                stat["self_ns"] += span - frame[1]
            if counter is not None:
                counter(tracer, stat, args, result)
            return result

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper in :data:`LAYERS`; restore the originals on exit."""
    undo: list[tuple[object, str, object]] = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "melt" or n.startswith("melt."))]
    try:
        for owner, attr, name, counter in LAYERS:
            original = owner.__dict__[attr]
            traced = tracer.wrap(original, name, counter)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
