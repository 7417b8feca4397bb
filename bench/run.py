"""melt benchmark: end-to-end round metrics and a traced per-layer run.

Usage, from the repository root::

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``BENCHMARK.json`` gives the reason for each):

``testbed``
    The shipped ``testbed.cfg`` with ``meltmon`` and two ``melt`` sessions,
    60 logical seconds per repetition, repeated back to back. A round is
    one logical second.
``client_groups``
    One client domain of 1024 agents, fanout 4, with one ``group_by=client``
    summary stream at a 1 s interval, so the body carries one group per
    agent toward the root.
``tcp_relay``
    ``serve_overlay`` for a 1024-member domain over loopback TCP: one
    producer at the deepest relay, one session consumer at ``@root``.

With ``--trace 0`` the run prints the end-to-end metrics, measured with no
tracing: ``setup_s`` (median of several builds), ``round_ms_tail`` (a fixed
upper percentile of round time per workload, see :func:`end_to_end` for why
not the median) and ``peak_rss_mb``. The info line adds the run's median and
mean round time, ``contrib_per_s`` and ``cpu_ms_per_round``, which have no
bound. With ``--trace 1`` it measures the same workload untraced for half
of ``--seconds``, then traced twice with the same seed over a fixed number
of rounds (the per-layer counts of the two must be identical on the sim
workloads), and on sized workloads once more at a quarter of the size for
the ``.scale4x`` ratios. Per-layer time is self time per round; counts are
per round. A layer that a workload does not run reads 0, as do the
``.scale4x`` ratios on ``testbed``, which has no size to vary.

Which end-to-end metric each per-layer metric should move, and on which
workload:

- ``scenario.snapshot.*``, ``agent.tick.ms``, ``agent.contrib.*``:
  round_ms_tail (and contrib_per_s) on client_groups (not tcp_relay).
- ``simnet.*``, ``transport.recv.*``, ``overlay.*``: round_ms_tail on
  client_groups and testbed (not tcp_relay).
- ``wire.*``: round_ms_tail (and cpu_ms_per_round) on client_groups most.
- ``aggregates.*``: round_ms_tail and peak_rss_mb on client_groups (little
  on testbed).
- ``meltmon.*``, ``meltcli.*``, ``render.*``: round_ms_tail on testbed only.
- ``sockethost.*``, ``transport.send.*``, ``transport.tcp.bytes``:
  round_ms_tail (and cpu_ms_per_round) on tcp_relay only.
- ``topology.parse.ms``: setup_s on all.
- ``<layer>.scale4x``: how the traced round time grows with N on
  client_groups and tcp_relay; about 4 for a linear layer, 16 for a
  quadratic one.
- ``trace.*``: nothing; the tracing's own cost and the count-stability
  check.

All three workloads are single-threaded and serialized, so with nothing
contending a faster layer saves at most its self-time share of the round.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
starting with ``info``, records the interpreter, CPU count, platform, source
revision, seed, rounds, the tail percentile and the rounds beyond it, the
unbounded whole-run figures above, ``round_fail_frac`` and, for
``tcp_relay``, whether every connection was on loopback. A round fails if
its record is missing, counts fewer actual than expected contributors, or
differs from the flat-fold oracle (the sent body, on ``tcp_relay``); any
failure makes the command exit with code 1.

``--size tiny`` shrinks every workload to a few rounds for ``smoke.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("testbed", "client_groups", "tcp_relay")

# agents (or domain members) per sized workload, at full and tiny size
SIZES = {
    "full": {"client_groups": 1024, "tcp_relay": 1024, "testbed": 60},
    "tiny": {"client_groups": 32, "tcp_relay": 64, "testbed": 12},
}
# builds per run for workloads that keep one build for all rounds; the
# reported setup_s is their median (testbed rebuilds every repetition)
SETUPS = {"full": 5, "tiny": 1}
# rounds in each traced phase; fixed, so per-round counts are comparable
TRACED_ROUNDS = {
    "full": {"client_groups": 10, "tcp_relay": 100, "testbed": 180},
    "tiny": {"client_groups": 3, "tcp_relay": 5, "testbed": 12},
}
SIM_WORKLOADS = ("testbed", "client_groups")
SCALED_WORKLOADS = ("client_groups", "tcp_relay")
# the percentile reported as round_ms_tail, fixed per workload so that it
# does not change with the number of rounds a run completes; each leaves
# ten or more rounds beyond it in a 40-second full-size run (about 100 to
# 160 client_groups rounds, 800 to 1100 tcp_relay, 4000 to 6000 testbed on
# a 2-vCPU x86 VM)
TAIL_PERCENTILE = {"testbed": 99, "client_groups": 90, "tcp_relay": 95}

END_TO_END = {
    "setup_s": "s",
    "round_ms_tail": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (layer, field, unit); "ms" is self time per round
LAYER_METRICS = {
    "scenario.snapshot.calls": ("scenario.snapshot", "calls", "calls/round"),
    "scenario.snapshot.ms": ("scenario.snapshot", "ms", "ms/round"),
    "agent.tick.ms": ("agent.tick", "ms", "ms/round"),
    "agent.contrib.calls": ("agent.contrib", "calls", "calls/round"),
    "agent.contrib.ms": ("agent.contrib", "ms", "ms/round"),
    "agent.contrib.tuples": ("agent.contrib", "tuples", "tuples/round"),
    "simnet.pump.ms": ("simnet.pump", "ms", "ms/round"),
    "simnet.flush.calls": ("simnet.flush", "calls", "calls/round"),
    "simnet.flush.ms": ("simnet.flush", "ms", "ms/round"),
    "transport.recv.calls": ("transport.recv", "calls", "calls/round"),
    "transport.recv.useful_frac": ("transport.recv", "useful_frac", "frac"),
    "overlay.on_message.calls": ("overlay.on_message", "calls", "calls/round"),
    "overlay.on_message.ms": ("overlay.on_message", "ms", "ms/round"),
    "overlay.on_tick.ms": ("overlay.on_tick", "ms", "ms/round"),
    "overlay.complete_round.calls": ("overlay.complete_round", "calls", "calls/round"),
    "overlay.complete_round.ms": ("overlay.complete_round", "ms", "ms/round"),
    "wire.encode.calls": ("wire.encode", "calls", "calls/round"),
    "wire.encode.ms": ("wire.encode", "ms", "ms/round"),
    "wire.encode.bytes": ("wire.encode", "bytes", "B/round"),
    "wire.decode.calls": ("wire.decode", "calls", "calls/round"),
    "wire.decode.frames": ("wire.decode", "frames", "frames/round"),
    "wire.decode.ms": ("wire.decode", "ms", "ms/round"),
    "wire.decode.bytes": ("wire.decode", "bytes", "B/round"),
    "aggregates.parse.calls": ("aggregates.parse", "calls", "calls/round"),
    "aggregates.parse.ms": ("aggregates.parse", "ms", "ms/round"),
    "aggregates.parse.bytes": ("aggregates.parse", "bytes", "B/round"),
    "aggregates.merge.calls": ("aggregates.merge", "calls", "calls/round"),
    "aggregates.merge.ms": ("aggregates.merge", "ms", "ms/round"),
    "aggregates.text.ms": ("aggregates.text", "ms", "ms/round"),
    "aggregates.text.bytes": ("aggregates.text", "bytes", "B/round"),
    "aggregates.fold.ms": ("aggregates.fold", "ms", "ms/round"),
    "meltmon.record.calls": ("meltmon.record", "calls", "calls/round"),
    "meltmon.record.ms": ("meltmon.record", "ms", "ms/round"),
    "meltcli.record.ms": ("meltcli.record", "ms", "ms/round"),
    "render.calls": ("render", "calls", "calls/round"),
    "render.ms": ("render", "ms", "ms/round"),
    "sockethost.pump.calls": ("sockethost.pump", "calls", "calls/round"),
    "sockethost.pump.ms": ("sockethost.pump", "ms", "ms/round"),
    "sockethost.accept.calls": ("sockethost.accept", "calls", "calls/round"),
    "sockethost.accept.useful_frac": ("sockethost.accept", "useful_frac", "frac"),
    "transport.send.calls": ("transport.send", "calls", "calls/round"),
    "transport.send.ms": ("transport.send", "ms", "ms/round"),
    "transport.tcp.bytes": ("transport.tcp", "bytes", "B/round"),
}
# layers whose per-round self time is also reported as time(N) / time(N/4)
SCALED_LAYERS = sorted({layer for layer, field, _ in LAYER_METRICS.values() if field == "ms"})
EXACT_FIELDS = ("calls", "useful", "bytes", "frames", "tuples")


def per_layer_units() -> dict[str, str]:
    """Every ``--trace 1`` metric name and its unit, in print order."""
    units = {name: unit for name, (_, _, unit) in LAYER_METRICS.items()}
    units["topology.parse.ms"] = "ms/setup"
    units["trace.round_ms_mean"] = "ms"
    units["trace.unattributed.ms"] = "ms/round"
    units["trace.overhead_frac"] = "frac"
    units["trace.counts_stable"] = "bool"
    units["round_ms_mean.scale4x"] = "ratio"
    for layer in SCALED_LAYERS:
        units[f"{layer}.scale4x"] = "ratio"
    return units


# --- measuring ------------------------------------------------------------------


class Phase:
    """What one measuring phase saw."""

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        self.round_ms: list[float] = []
        self.cpu_s = 0.0
        self.contributors = 0
        self.attempted = 0
        self.failed = 0
        self.round_stats: dict = {}
        self.setup_stats: dict = {}
        self.notes: dict = {}


def run_phase(make, seconds: float | None = None, rounds: int | None = None,
              setups: int = 1, tracer=None) -> Phase:
    """Set up and drive one workload for ``seconds`` or for ``rounds`` rounds.

    Only ``trigger()`` is inside the timed region. A time-bounded phase stops
    at a round boundary after ``seconds``, and for a workload with a fixed
    number of rounds per build (testbed), only at the end of a repetition.
    """
    phase = Phase()
    clock, cpu = time.perf_counter, time.process_time
    work = None

    def timed(step) -> float:
        if tracer is not None:
            tracer.active = True
        start = clock()
        try:
            step()
        finally:
            if tracer is not None:
                tracer.active = False
        return clock() - start

    def build():
        nonlocal work
        if work is not None:
            work.close()
            work = None
            gc.collect()
        fresh = make()
        if tracer is not None:
            tracer.stats = phase.setup_stats
        elapsed = timed(fresh.setup)
        # warm-up rounds are set-up: their triggers count, their checks not
        for _ in range(fresh.WARMUP):
            fresh.prepare()
            elapsed += timed(fresh.trigger)
            phase.attempted += 1
            phase.failed += not fresh.check()[0]
        phase.setup_s.append(elapsed)
        if tracer is not None:
            tracer.stats = phase.round_stats
        work = fresh

    for _ in range(setups):
        build()
    started = clock()
    try:
        while True:
            if work.exhausted():
                build()
            work.prepare()
            c0, t0 = cpu(), clock()
            if tracer is not None:
                tracer.active = True
            try:
                work.trigger()
            finally:
                if tracer is not None:
                    tracer.active = False
            t1, c1 = clock(), cpu()
            ok, contributors = work.check()
            phase.attempted += 1
            if not ok:
                phase.failed += 1
            phase.round_ms.append((t1 - t0) * 1e3)
            phase.cpu_s += c1 - c0
            phase.contributors += contributors
            boundary = work.rounds_per_setup is None or work.exhausted()
            if rounds is not None:
                if len(phase.round_ms) >= rounds and boundary:
                    break
            elif clock() - started >= seconds and boundary:
                break
    except (TimeoutError, ConnectionError) as exc:
        phase.attempted += 1
        phase.failed += 1
        phase.notes["error"] = f"{type(exc).__name__}: {exc}"
    phase.notes.update({k: getattr(work, k) for k in ("loopback", "relays", "listeners")
                        if hasattr(work, k)})
    work.close()
    return phase


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolated percentile of ``values`` (p in 0..100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(phase: Phase, workload: str) -> tuple[dict, dict]:
    """The bounded end-to-end metrics, and the run's other whole-run
    figures, which go on the info line.

    A shared host switches between speed states about 40% apart that last
    from seconds to minutes, and the share of a run spent in each varies
    from run to run by more than the 25% bound allows. Every central figure
    of round time follows that share: the median jumps between the two
    modes, and the mean, the contributor rate and the CPU time per round
    move with it. An upper percentile falls among the slow-mode rounds that
    nearly every run has, so it follows that share much less: over ten
    40-second runs on a 2-vCPU x86 VM its quartiles were about 11% of the
    median apart on every workload, against 29% to 48% for the median and
    15% to 30% for the mean. It is the bounded round-time metric, and the
    central figures are kept as notes.
    """
    n = len(phase.round_ms)
    p = TAIL_PERCENTILE[workload]
    values = {
        "setup_s": statistics.median(phase.setup_s),
        "round_ms_tail": percentile(phase.round_ms, p),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"rounds": n, "setups": len(phase.setup_s), "tail_percentile": p,
             "tail_samples_beyond": n - -(-n * p // 100),
             "round_ms_p50": statistics.median(phase.round_ms),
             "round_ms_mean": statistics.mean(phase.round_ms),
             "contrib_per_s": phase.contributors * 1e3 / sum(phase.round_ms),
             "cpu_ms_per_round": phase.cpu_s * 1e3 / n}
    return values, notes


def layer_values(phase: Phase) -> dict[str, float]:
    rounds = len(phase.round_ms)
    out = {}
    for name, (layer, field, _unit) in LAYER_METRICS.items():
        stat = phase.round_stats.get(layer)
        if stat is None:
            out[name] = 0.0
        elif field == "ms":
            out[name] = stat["self_ns"] / 1e6 / rounds
        elif field == "useful_frac":
            out[name] = stat["useful"] / stat["calls"] if stat["calls"] else 0.0
        else:
            out[name] = stat[field] / rounds
    parse = phase.setup_stats.get("topology.parse")
    out["topology.parse.ms"] = parse["self_ns"] / 1e6 / len(phase.setup_s) if parse else 0.0
    covered = sum(stat["self_ns"] for stat in phase.round_stats.values()) / 1e6
    out["trace.round_ms_mean"] = statistics.mean(phase.round_ms)
    out["trace.unattributed.ms"] = (sum(phase.round_ms) - covered) / rounds
    return out


def exact_counts(phase: Phase) -> dict:
    return {(layer, field): stat[field] for layer, stat in phase.round_stats.items()
            for field in EXACT_FIELDS}


# --- the run record ------------------------------------------------------------------


def source_revision() -> dict:
    """The git commit when the tree is a checkout, and a digest of the sources."""
    commit = None
    head_path = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(ROOT, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
            else:
                with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
                    for line in fh:
                        if line.rstrip().endswith(" " + ref):
                            commit = line.split()[0]
        else:
            commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    melt_dir = os.path.join(SRC, "melt")
    for dirpath, dirnames, filenames in os.walk(melt_dir):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".cfg")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def import_melt() -> None:
    """Put this tree's ``src`` first on the path; refuse any other melt."""
    if not os.path.isfile(os.path.join(SRC, "melt", "__init__.py")):
        raise SystemExit(f"bench: no melt sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import melt

    if os.path.dirname(os.path.abspath(melt.__file__)) != os.path.join(SRC, "melt"):
        raise SystemExit(f"bench: imported melt from {melt.__file__}, not {SRC}")


def factory(workload: str, seed: int, size: str, quarter: bool = False):
    import workloads as w

    n = SIZES[size][workload]
    if quarter:
        n //= 4
    if workload == "testbed":
        return lambda: w.Testbed(seed, SRC, ticks=n)
    if workload == "client_groups":
        return lambda: w.ClientGroups(seed, n)
    return lambda: w.TcpRelay(seed, n)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=tuple(SIZES))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_melt()
    started = time.perf_counter()
    make = factory(args.workload, args.seed, args.size)
    # a traced run spends half its time untraced, as the reference for
    # trace.overhead_frac, so that with its fixed traced rounds it takes
    # about as long as an untraced run
    untraced = run_phase(make, seconds=args.seconds / 2 if args.trace else args.seconds,
                         setups=1 if args.trace else SETUPS[args.size])
    e2e, notes = end_to_end(untraced, args.workload)
    phases = [untraced]
    counts_stable = None

    if args.trace:
        from tracing import Tracer, installed

        rounds = TRACED_ROUNDS[args.size][args.workload]
        tracer = Tracer()
        with installed(tracer):
            first = run_phase(make, rounds=rounds, tracer=tracer)
            second = run_phase(make, rounds=rounds, tracer=tracer)
            phases += [first, second]
            quarter = None
            if args.workload in SCALED_WORKLOADS:
                quarter = run_phase(factory(args.workload, args.seed, args.size, quarter=True),
                                    rounds=rounds, tracer=tracer)
                phases.append(quarter)
        metrics = layer_values(first)
        counts_stable = exact_counts(first) == exact_counts(second)
        metrics["trace.overhead_frac"] = metrics["trace.round_ms_mean"] / notes["round_ms_mean"] - 1.0
        metrics["trace.counts_stable"] = 1.0 if counts_stable else 0.0
        small = layer_values(quarter) if quarter is not None else {}
        ratio_pairs = [("round_ms_mean", "trace.round_ms_mean")] + \
            [(layer, f"{layer}.ms") for layer in SCALED_LAYERS]
        for label, key in ratio_pairs:
            big, little = metrics[key], small.get(key, 0.0)
            metrics[f"{label}.scale4x"] = big / little if little > 0 else 0.0
        units = per_layer_units()
        notes["traced_rounds"] = rounds
        notes["quarter_size"] = SIZES[args.size][args.workload] // 4 \
            if quarter is not None else None
    else:
        metrics = e2e
        units = END_TO_END

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    # exact per-layer counts are a promise on the deterministic sim workloads only
    correct = failed == 0 and (counts_stable is not False
                               or args.workload not in SIM_WORKLOADS)
    errors = [p.notes["error"] for p in phases if "error" in p.notes]
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "platform": platform.platform(),
        **source_revision(),
        "round_fail_frac": failed / attempted if attempted else 0.0,
        "counts_stable": counts_stable, "errors": errors,
        "wall_s": time.perf_counter() - started,
        **notes,
        **{k: v for k, v in untraced.notes.items() if k != "error"},
    }
    if args.workload == "tcp_relay":
        info["network"] = "loopback" if untraced.notes.get("loopback") else "not loopback"
    print("info " + json.dumps(info, sort_keys=True))
    for name, unit in units.items():
        alongside = (f"  (p{notes['tail_percentile']:g}, {notes['tail_samples_beyond']} "
                     f"of {notes['rounds']} rounds beyond it)") if name == "round_ms_tail" else ""
        print(f"  {name} = {metrics[name]!r} {unit}{alongside}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
