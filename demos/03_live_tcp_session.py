"""A live deployment in miniature: real sockets, an agent, the melt tool.

The overlay (root plus one domain manager) serves one TCP endpoint, which
places each connection by its Attach; an agent connects from this process
over localhost and samples a scripted 1 MiB/s workload; the melt session
engine connects as a second TCP client and watches it. Both clients run on one client-side SocketHost, the same
host loop the overlay runs on. Time is accelerated (4 logical seconds per
wall second).
"""

import threading
import time

from melt.agent import AgentConfig, AgentCore
from melt.meltcli import CliCore, parse_cli
from melt.scenario import SyntheticSource, WorkloadModel, parse_workload
from melt.sockethost import SocketHost, serve_overlay
from melt.topology import parse_topology
from melt.transport import transport_connect

topology = parse_topology("""
[domain solo]
manager = mgr
members = n1
fanout = 2
role = client
fs = knot2
[ring]
order = solo
root = skein
""")

host, handle, endpoints = serve_overlay(topology)
print("endpoint for agents and sessions (placed by their Attach):", endpoints["@root"])
stop = threading.Event()
threading.Thread(target=host.serve,
                 kwargs=dict(logical_seconds=600, wall_per_tick=0.25, stop=stop),
                 daemon=True).start()

script = parse_workload([(1, "job 0 500 j1 n1"),
                         (2, "io 0 500 j1 1M 512K roundrobin")])
model = WorkloadModel(topology, script)
agent = AgentCore(AgentConfig.from_topology(topology, "n1"),
                  SyntheticSource(model, "n1"), topology)

inv = parse_cli(["clnt=n1", "status", "io", "-delay=2s",
                 "-metrics=IO_RD_BW,IO_WR_BW"])
tool = CliCore(inv, client_name="demo", base_time=0, hostname="skein", pid=1)

# the client side is a SocketHost too: each core dials its attach point
# and talks over its own "up" link, as meltagent and melt do
clients = SocketHost()
for core, endpoint in ((agent, endpoints["n1"]), (tool, endpoints["@root"])):
    clients.add_process(core)
    clients.attach_channel(core, "up", transport_connect(endpoint))
    core.start()

deadline = time.time() + 20
while time.time() < deadline and tool.frames_emitted < 4:
    clients.serve(1, wall_per_tick=0.25)
    while tool.rendered:
        print(tool.rendered.popleft())

tool.finish()
clients.flush(tool)
stop.set()
print(f"collected {tool.frames_emitted} frames over real TCP")
