"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.
"""

from __future__ import annotations

import hashlib
import random
import re
import time

import pytest

from melt import wire
from melt.jobmap import FileJobSource
from melt.meltcli import UsageError, parse_cli
from melt.meltmon import LOG_LINE_RE, parse_log_line
from melt.scenario import load_scenario, parse_scenario
from melt.simharness import (
    SimCluster, main as meltsim_main, message_accounting, oracle_aggregate,
    resolve_scenario_path,
)
from melt.streams import StreamSpec
from melt.wire import decode_all, decode_frame, encode_message

from simutil import (
    ONE_DOMAIN, add_driver, assert_body_matches_oracle, brute_force_topk,
    create_stream, deep_domain, io_stream_spec, random_scenario,
    random_stream_specs, run_ticks,
)

GI = 1024 ** 3
MI = 1024 ** 2


def ok(number: int, name: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: PASS")


def read_testbed_text() -> str:
    import importlib.resources
    ref = importlib.resources.files("melt") / "data" / "testbed.cfg"
    return ref.read_text(encoding="utf-8")


def with_workload(lines: list[str], scenario_keys: str = "") -> str:
    base = read_testbed_text().split("[workload]")[0]
    if scenario_keys:
        base += scenario_keys
    return base + "[workload]\n" + "\n".join(lines) + "\n"


def test_c01_log_grammar_reproduction():
    started = time.monotonic()
    spec = load_scenario(resolve_scenario_path("testbed.cfg"))
    cluster = SimCluster(spec)
    cluster.advance(45)
    result = cluster.result()

    lines = [ln for sink in result.logs.values() for ln in sink]
    assert lines, "no log lines emitted"
    for line in lines:
        assert LOG_LINE_RE.match(line), f"grammar violation: {line!r}"

    # prefix structure identical to the published example modulo timestamp,
    # pid, and values; the scripted rates make even the first values literal
    io_1111 = [ln for ln in result.logs["melt-knot2.log"]
               if "job=tait.1111 IO_RD_BW=" in ln]
    assert io_1111
    assert re.match(
        r"^Jan 15 11:2\d:\d\d skein melt\[123\]: job=tait\.1111 "
        r"IO_RD_BW=20M/s IO_WR_BW=476M/s IO_CLNT_NUM=4 ", io_1111[0])

    # round-trip parse recovers every value within humanize quantization
    recomputed: dict[tuple[str, str], dict[str, float]] = {}
    from melt.aggregates import SummaryBody, body_from_text, display_value
    from melt.meltmon import format_log_timestamp, group_pair
    daemon = cluster.daemon
    for record in daemon.records:
        spec_ = daemon.my_streams.get(record.stream_id)
        if spec_ is None:
            continue
        body = body_from_text(record.aggregate_body)
        if not isinstance(body, SummaryBody):
            continue
        stamp = format_log_timestamp(cluster.spec.base_time + record.round)
        for group in body.groups():
            slot = recomputed.setdefault((stamp, group_pair(spec_, group)), {})
            slot.update({m: display_value(body, group, m)
                         for m in spec_.metric_names})
    checked = 0
    for line in lines:
        stamp, _host, (label, group), values = parse_log_line(line)
        truth = recomputed[(stamp, f"{label}={group}")]
        for key, parsed in values.items():
            assert parsed == pytest.approx(truth[key], rel=0.051, abs=1e-9)
            checked += 1
    assert checked > 100
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    ok(1, f"log grammar reproduction ({len(lines)} lines, {checked} values, "
          f"{elapsed:.1f}s)")


FIG_TOPK_JOBS = [
    ("conway.2789", ["conway01", "conway02"], 6442450944.0),
    ("tait.4321", [f"tait{i:02d}" for i in range(1, 9)], 1046898278.4),
    ("euler.22397", [f"euler{i:02d}" for i in range(1, 17)], 483183820.8),
    ("tait.4334", [f"tait{i:02d}" for i in range(9, 17)], 456340275.2),
    ("euler.22388", [f"euler{i:02d}" for i in range(17, 33)], 51118080.0),
]


def test_c02_topk_reproduction():
    lines = []
    for job, nodes, per_client in FIG_TOPK_JOBS:
        lines.append(f"job 0 25 {job} " + " ".join(nodes))
        lines.append(f"io 0 25 {job} {per_client} 0 roundrobin")
    spec = parse_scenario(with_workload(lines))
    cluster = SimCluster(spec)
    core = cluster.add_cli([
        "-group=job", "fs=knot2", "top", "io", "-topk=5", "-topmetric=IO_RD_BW",
        "-metrics=IO_RD_BW,IO_CLNT_AVG_RD_SZ,IO_CLNT_AVG_RD_TIME", "-once"])
    cluster.advance(12)
    assert core.done and core.frames

    rows = core.frames[0].rows
    assert [row[0] for row in rows] == [
        "conway.2789", "tait.4321", "euler.22397", "tait.4334", "euler.22388"]
    for row, (job, nodes, per_client) in zip(rows, FIG_TOPK_JOBS):
        scripted = per_client * len(nodes)
        assert row[1] == pytest.approx(scripted, rel=0.02)

    rendered = core.rendered[0].splitlines()
    assert rendered[0].split() == ["JOB", "RD_BW", "RD_SZ", "RD_TIME"]
    assert rendered[1].startswith("conway.2789") and "12 GB/s" in rendered[1]
    assert "780 MB/s" in rendered[5]
    ok(2, "top-k table reproduction (exact order, values within 2%)")


def test_c03_status_reproduction():
    lines = ["job 0 95 tait.1234 tait02 tait03",
             "io 0 95 tait.1234 346M 0 roundrobin",
             "meta 0 95 tait.1234 64 open:1,close:1,stat:2"]
    spec = parse_scenario(with_workload(
        lines, scenario_keys="[scenario]\nduration = 95\npoll = 5\n"))
    cluster = SimCluster(spec)
    core = cluster.add_cli([
        "job=tait.1234", "status", "io,meta", "-delay=30s",
        "-metrics=IO_RD_BW,IO_WR_BW,META_OP_RATE"])
    cluster.advance(95)

    header = core.rendered[0].splitlines()[0]
    assert " ".join(header.split()) == "TIME RD_BW WR_BW MD_RATE"
    assert [f.epoch_secs - spec.base_time for f in core.frames] == [30, 60, 90]
    first_row = core.rendered[0].splitlines()[1]
    assert "692 MB/s" in first_row and "0 B/s" in first_row and "64 op/s" in first_row
    ok(3, "status table reproduction (exact header, one frame per 30s)")


def test_c04_aggregation_oracle_equivalence():
    from melt.aggregates import SummaryBody, select_topk
    from melt.simharness import leaf_samples
    from simutil import DriverClient

    started = time.monotonic()
    rng = random.Random(41)
    sizes = [512, 128] + [64] * 8 + [24] * 40
    records_checked = rounds_checked = 0
    for trial, max_leaves in enumerate(sizes):
        spec = random_scenario(rng, max_leaves=max_leaves)
        cluster = SimCluster(spec)
        driver = DriverClient(f"oracle{trial}")
        cluster.add_client(driver)
        for stream_spec in random_stream_specs(rng, spec.topology):
            before = len(driver.created)
            driver.create_stream(stream_spec)
            cluster.host.flush(driver)
            cluster.host.pump()
            if len(driver.created) > before:
                driver.subscribe(driver.created[-1])
                cluster.host.flush(driver)
                cluster.host.pump()
        cluster.advance(spec.duration)
        result = cluster.result()
        assert driver.records
        acct = message_accounting(result)
        n_domains = len(spec.topology.domains)
        for record in driver.records:
            oracle = oracle_aggregate(result, record.stream_id, record.round)
            body = assert_body_matches_oracle(record, oracle)
            key = (record.stream_id, record.round)
            assert acct.root_ingress[key] == 1
            assert acct.ring_frames[key] == n_domains
            assert all(n == 1 for n in acct.data_per_edge[key].values())
            rounds_checked += 1
            if isinstance(body, SummaryBody) and body.entries:
                metric = sorted({m for _g, m in body.entries})[0]
                k = rng.randint(1, 6)
                got = select_topk(body, k, metric)
                want = brute_force_topk(
                    leaf_samples(result, record.stream_id, record.round), metric, k)
                assert [g for g, _ in got] == [g for g, _ in want]
                for (_, a), (_, b) in zip(got, want):
                    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)
                records_checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"took {elapsed:.1f}s"
    ok(4, f"oracle equivalence (50 scenarios, {rounds_checked} rounds, "
          f"{records_checked} top-k checks, {elapsed:.1f}s)")


@pytest.mark.parametrize("leaves", [8, 64, 512])
def test_c05_message_scaling(leaves):
    from simutil import make_sim, attach_agents

    nodes = " ".join(f"n{i:03d}" for i in range(leaves))
    host, handle, model = make_sim(
        deep_domain(leaves, fanout=4),
        (f"job 0 8 j1 {nodes}", "io 0 8 j1 1M 0 roundrobin"))
    attach_agents(handle, model)
    driver = add_driver(handle)
    sid = create_stream(handle, driver, io_stream_spec(interval=1))
    driver.subscribe(sid)
    host.flush(driver)
    host.pump()
    host.transcript.clear()
    run_ticks(host, 1, 3)

    from melt.simharness import RunResult
    result = RunResult(None, list(host.transcript), {sid: io_stream_spec(interval=1)})
    acct = message_accounting(result)
    n_relays = len(handle.relays)
    for rnd in (1, 2, 3):
        assert acct.root_ingress[(sid, rnd)] == 1
        tree = acct.tree_edge_counts(sid, rnd)
        assert set(tree.values()) == {1}
        assert len(tree) == leaves + n_relays
    ok(5, f"message scaling at N={leaves} (root ingress 1, "
          f"{leaves + n_relays} tree edges each carrying 1)")


def test_c06_buffering_contract():
    from simutil import make_sim, attach_agents

    host, handle, model = make_sim(
        ONE_DOMAIN, ("job 0 45 j1 n1", "io 0 45 j1 1M 0 roundrobin"))
    attach_agents(handle, model)
    creator = add_driver(handle, "creator")
    sid = create_stream(handle, creator, io_stream_spec(interval=1, capacity=16))
    handle.detach_client("creator")

    run_ticks(host, 1, 40)
    consumer = add_driver(handle, "consumer")
    consumer.subscribe(sid)
    host.flush(consumer)
    host.pump()
    assert [r.round for r in consumer.records] == list(range(25, 41))
    run_ticks(host, 41, 3)
    assert [r.round for r in consumer.records] == list(range(25, 44))
    ok(6, "buffering contract (capacity 16 keeps rounds 25..40, no splice gap)")


def test_c07_table_matrix():
    from melt.meltcli import MATRIX
    from melt import catalog

    accepted = 0
    for (kind, mode), classes in MATRIX.items():
        target = "fs" if kind == "fs" else f"{kind}=x"
        for cls in classes:
            parse_cli([target, mode, cls])
            accepted += 1
        if mode == "status":
            parse_cli([target, mode, "all"])
            accepted += 1

    rejected = 0
    for (kind, mode), classes in MATRIX.items():
        target = "fs" if kind == "fs" else f"{kind}=x"
        for cls in catalog.CLASSES:
            if cls in classes:
                continue
            with pytest.raises(UsageError, match="matrix row"):
                parse_cli([target, mode, cls])
            rejected += 1
    for probe in (["oss=o1", "status", "meta"], ["mds=m1", "top", "io"],
                  ["job=j1", "status", "lock"], ["fs", "top", "all"]):
        with pytest.raises(UsageError):
            parse_cli(probe)
    ok(7, f"target/mode/class matrix ({accepted} accepted, {rejected} rejected "
          "with row-citing errors)")


def fastest_interval(agent, metric: str) -> int:
    """The shortest interval of the streams that have an agent sample ``metric``."""
    return min(agent.stream_interval(sid) for sid, prod in agent.production.items()
               if metric in prod.metrics)


def test_c08_rate_override_lifecycle():
    spec = load_scenario(resolve_scenario_path("testbed.cfg"))
    cluster = SimCluster(spec)
    agent = cluster.handle.agents["tait02"]
    io_sid = 1  # meltmon/knot2/io
    assert agent.stream_interval(io_sid) == 10

    core = cluster.add_cli(["-group=job", "fs", "status", "io", "-delay=5s", "-once"])
    cluster.advance(4)
    assert core.pattern == "subscribe-existing"
    assert agent.stream_interval(io_sid) == 5
    assert fastest_interval(agent, "IO_RD_BW") == 5

    cluster.advance(2)  # first 5s round lands, -once renders and exits cleanly
    assert core.done and core.exit_code == 0
    assert agent.stream_interval(io_sid) == 10
    assert fastest_interval(agent, "IO_RD_BW") == 10
    ok(8, "rate override lifecycle (10s -> 5s while watching, reverts on exit)")


def test_c09_jobmap_propagation(tmp_path):
    path = tmp_path / "jobs"
    path.write_text("tait.1111 tait02 tait03\n", encoding="utf-8")
    spec = parse_scenario(with_workload(
        ["job 0 30 tait.1111 tait02 tait03",
         "io 0 30 tait.1111 1M 0 roundrobin"],
        scenario_keys="[scenario]\nduration = 30\npoll = 5\n"))
    cluster = SimCluster(spec, job_source=FileJobSource(str(path)))
    cluster.advance(12)
    clients = [a for a in cluster.handle.agents.values()
               if a.config.lustre_role == "client"]
    assert all(a.jobmap_epoch == 1 for a in clients)

    path.write_text("tait.1111 tait02 tait03\ntait.9999 tait04 tait05\n",
                    encoding="utf-8")
    changed_at = cluster.now
    cluster.advance(5)  # within one poll interval
    assert all(a.jobmap_epoch == 2 for a in clients)
    assert cluster.handle.agents["tait04"].my_job == "tait.9999"
    assert cluster.now - changed_at <= spec.poll_secs
    ok(9, "job map propagation (new epoch at every client within one poll)")


def test_c10_determinism(tmp_path):
    out_a, out_b = tmp_path / "a.log", tmp_path / "b.log"
    assert meltsim_main(["run", "testbed.cfg", "--transcript", str(out_a)]) == 0
    assert meltsim_main(["run", "testbed.cfg", "--transcript", str(out_b)]) == 0
    bytes_a, bytes_b = out_a.read_bytes(), out_b.read_bytes()
    assert bytes_a == bytes_b and len(bytes_a) > 10_000
    ok(10, f"determinism (two runs, byte-identical {len(bytes_a)}-byte transcripts)")


# sha256 of `meltsim run testbed.cfg --transcript` (312,036 bytes). c10 compares
# two runs of the same code; this pins the delivery order across changes.
TESTBED_TRANSCRIPT_SHA256 = "27c8b0af0f1c30b7eafb92f0cf285c5cfb55d248925f440d213dc565637e606b"


def test_c10_golden_transcript_digest(tmp_path):
    out = tmp_path / "testbed.log"
    assert meltsim_main(["run", "testbed.cfg", "--transcript", str(out)]) == 0
    data = out.read_bytes()
    assert len(data) == 312_036
    assert hashlib.sha256(data).hexdigest() == TESTBED_TRANSCRIPT_SHA256


def _random_message(rng: random.Random) -> wire.Message:
    def text(n=12):
        alphabet = "abcXYZ0189 _.:/\\\n=%,-"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, n)))

    def token(n=10):
        alphabet = "abcdefghij0123456789_."
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, n)))

    choice = rng.randrange(11)
    if choice == 0:
        return wire.Attach(text(), token(), token(), token())
    if choice == 1:
        return wire.AttachAck(rng.randrange(1 << 30))
    if choice == 2:
        kinds = ("summary", "histogram", "counted-key")
        agg = kinds[rng.randrange(3)]
        edges = tuple(sorted({rng.uniform(0, 1e9) for _ in range(3)})) \
            if agg == "histogram" else ()
        return wire.CreateStream(StreamSpec(
            rng.randrange(1000), text(), token(), (token(), token()), agg,
            edges, "job", rng.randint(1, 600), rng.randint(1, 4096)))
    if choice == 3:
        return wire.StreamCreated(rng.randrange(1 << 30))
    if choice == 4:
        return wire.Subscribe(rng.randrange(1000),
                              rng.choice(("up-consumer", "agent-producer")))
    if choice == 5:
        return wire.SubscribeAck(rng.randrange(1000))
    if choice == 6:
        return wire.Data(rng.randrange(1000), rng.randrange(10 ** 6),
                         rng.randint(1, 3600), rng.randrange(10 ** 4),
                         rng.randrange(10 ** 4), text(40))
    if choice == 7:
        return wire.SetRate(rng.randrange(1000), (token(), token()),
                            rng.randrange(0, 3600))
    if choice == 8:
        entries = tuple((f"{token()}.{i}", (token(), token()))
                        for i in range(rng.randint(0, 3)))
        return wire.JobMapUpdate(rng.randrange(10 ** 6), entries)
    if choice == 9:
        return wire.Detach(text())
    return wire.Error(token(), text(30))


def test_c11_wire_roundtrip_10k():
    rng = random.Random(1851)
    batch: list[wire.Message] = []
    total = 0
    for i in range(10_000):
        msg = _random_message(rng)
        decoded, rest = decode_frame(encode_message(msg))
        assert decoded == msg and rest == b""
        total += 1
        batch.append(msg)
        if len(batch) == 40:
            blob = b"".join(encode_message(m) for m in batch)
            decoded_all, rest = decode_all(blob)
            assert decoded_all == batch and rest == b""
            batch.clear()
    ok(11, f"wire round-trip ({total} messages, concatenated parsing exact)")
