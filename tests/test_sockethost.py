"""The socket backend of the host loop, as the binaries use it."""

from __future__ import annotations

import logging
import socket
import threading

import pytest

from melt import agent, meltcli, meltmon
from melt.overlay import ClientCore, attach_point
from melt.simharness import resolve_scenario_path
from melt.sockethost import SocketHost, dial_core, launch_distributed, serve_overlay
from melt.topology import load_topology
from melt.wire import Data, encode_message

from simutil import ONE_DOMAIN


def test_dialed_host_drains_more_than_64k_in_one_step():
    server = socket.create_server(("127.0.0.1", 0))
    core = ClientCore("client.bulk", "bulk")
    host, up = dial_core(core, f"127.0.0.1:{server.getsockname()[1]}")
    conn, _addr = server.accept()
    frames = [encode_message(Data(1, rnd, 1, 1, 1, "x" * 200)) for rnd in range(1, 1001)]
    payload = b"".join(frames)
    assert len(payload) > 1 << 16
    writer = threading.Thread(target=conn.sendall, args=(payload,))
    writer.start()
    try:
        host.serve(1, wall_per_tick=0.5)
        writer.join(timeout=5)
        assert not writer.is_alive()
        assert [r.round for r in core.records] == list(range(1, 1001))
        assert host.received[core.pid] == 1000
    finally:
        host.close()
        conn.close()
        server.close()


def test_notes_go_to_the_log_not_a_transcript(caplog):
    host = SocketHost()
    core = ClientCore("client.probe", "probe")
    host.add_process(core)
    core.note("probe-note", core.pid)
    with caplog.at_level(logging.DEBUG, logger="melt.sockethost"):
        host.tick(1)
    host.close()
    assert "('probe-note', 1, 'client.probe')" in caplog.text
    assert host.transcript == []


def _closing_peer():
    """A listener that accepts one connection and closes it at once."""
    server = socket.create_server(("127.0.0.1", 0))

    def accept_and_close():
        conn, _addr = server.accept()
        conn.close()
        server.close()

    threading.Thread(target=accept_and_close, daemon=True).start()
    return f"127.0.0.1:{server.getsockname()[1]}"


@pytest.mark.parametrize("prog", ["melt", "meltagent", "meltmon"])
def test_main_exits_2_when_up_link_closes(prog, tmp_path, capsys):
    endpoint = _closing_peer()
    if prog == "melt":
        code = meltcli.main([f"--connect={endpoint}", "fs", "status", "io"])
    elif prog == "meltagent":
        code = agent.main(["--node=n1", "--domain=solo", "--role=client",
                           f"--connect={endpoint}"])
    else:
        config = tmp_path / "overlay.cfg"
        config.write_text(ONE_DOMAIN)
        jobs = tmp_path / "jobs.txt"
        jobs.write_text("")
        code = meltmon.main([f"--connect={endpoint}", f"--config={config}",
                             f"--jobmap=file:{jobs}", f"--log-dir={tmp_path}"])
    assert code == 2
    assert f"{prog}: connection lost" in capsys.readouterr().err


NOWHERE = "--connect=127.0.0.1:9"  # never dialed: every case fails before


@pytest.mark.parametrize("prog, args, reason", [
    ("meltmon", ["--config={good}", "--jobmap=file:{jobs}", "--poll=0s"],
     "bad --poll value '0s'"),
    ("meltmon", ["--config={missing}", "--jobmap=file:{jobs}"], "No such file"),
    ("meltmon", ["--config={bad}", "--jobmap=file:{jobs}"], "unknown section [nonsense]"),
    ("meltmon", ["--config={good}", "--jobmap=file:{jobs}", "--pol=5s"],
     "unknown option '--pol'"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--config={missing}"],
     "No such file"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--config={bad}"],
     "unknown section [nonsense]"),
    ("meltagent", ["--node=n1", "--domain=solo", "--role=client", "--sorce=stats:{jobs}"],
     "unknown option '--sorce'"),
    ("melt", ["fs", "status", "io", "-delay=0s"], "bad duration '0s'"),
], ids=["meltmon-poll-0s", "meltmon-config-missing", "meltmon-config-malformed",
        "meltmon-unknown-flag", "meltagent-config-missing", "meltagent-config-malformed",
        "meltagent-unknown-flag", "melt-delay-0s"])
def test_bad_input_exits_1_with_reason(prog, args, reason, tmp_path, capsys):
    paths = {"good": tmp_path / "overlay.cfg", "bad": tmp_path / "bad.cfg",
             "missing": tmp_path / "absent.cfg", "jobs": tmp_path / "jobs.txt"}
    paths["good"].write_text(ONE_DOMAIN)
    paths["bad"].write_text("[nonsense]\nx = 1\n")
    paths["jobs"].write_text("")
    argv = [NOWHERE] + [arg.format(**paths) for arg in args]
    main = {"melt": meltcli.main, "meltagent": agent.main, "meltmon": meltmon.main}[prog]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{prog}: ") and err.count("\n") == 1
    assert reason in err


def test_both_socket_deployments_attach_each_node_at_the_same_process():
    topology = load_topology(resolve_scenario_path("testbed.cfg"))
    host, _handle, endpoints = serve_overlay(topology)
    cluster = launch_distributed(topology)
    try:
        served = {listener.endpoint: proc.pid for proc, listener in host.listeners}
        placed = {listener.endpoint: proc.pid for each in cluster.hosts.values()
                  for proc, listener in each.listeners}
        for node in topology.all_nodes():
            pid = attach_point(topology, node)[0]
            assert served[endpoints[node]] == placed[cluster.endpoints[node]] == pid
        assert served[endpoints["@root"]] == placed[cluster.endpoints["@root"]] == "root"
    finally:
        host.close()
        cluster.stop()
