"""The socket backend of the host loop, as the binaries use it."""

from __future__ import annotations

import logging
import socket
import threading

import pytest

from melt import agent, meltcli, meltmon
from melt.overlay import ClientCore
from melt.sockethost import SocketHost, dial_core
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
