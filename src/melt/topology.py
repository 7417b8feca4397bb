"""Overlay topology: domains, per-domain trees, the manager ring, config file.

Each domain's members form a complete-as-possible tree of the configured
fanout rooted at the domain manager, filled level by level in member-list
order (heap layout). Managers join a unidirectional ring with the session
root spliced in adjacent to the first ring entry.

Config file grammar (UTF-8 text, unknown keys rejected)::

    [domain <id>]
    manager = <node>
    members = <node>,<node>,...
    fanout = <int >= 2>
    role = client|oss|mds|router
    fs = <name>,<name>,...
    osts = <ost>,<ost>,...        # oss domains only

    [ring]
    order = <domain>,<domain>,...
    root = <node>
"""

from __future__ import annotations

from dataclasses import dataclass, field


class ConfigError(ValueError):
    """Topology or scenario file rejected; message carries the line number."""


LUSTRE_ROLES = ("client", "oss", "mds", "router")


@dataclass(frozen=True)
class DomainSpec:
    domain_id: str
    manager_node: str
    member_nodes: tuple[str, ...]
    fanout: int
    lustre_role: str
    filesystems: tuple[str, ...] = ()
    osts: tuple[str, ...] = ()
    _positions: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        self._positions.update((node, pos) for pos, node in enumerate(self.member_nodes, 1))

    def position(self, node: str) -> int:
        """Tree position of a member (1-based; 0 is the manager)."""
        try:
            return self._positions[node]
        except KeyError:
            raise KeyError(f"{node!r} is not a member of domain {self.domain_id}") from None

    def tree_children(self, pos: int) -> list[int]:
        """Heap children of tree position ``pos`` (0 is the manager)."""
        first = self.fanout * pos + 1
        last = min(first + self.fanout, len(self.member_nodes) + 1)
        return list(range(first, last))

    def tree_parent(self, pos: int) -> int:
        return (pos - 1) // self.fanout

    def internal_positions(self) -> list[int]:
        """Member positions that have heap children (they host relays): those
        whose first child, ``fanout * p + 1``, is still a member."""
        return list(range(1, (len(self.member_nodes) - 1) // self.fanout + 1))

    def node_at(self, pos: int) -> str:
        return self.manager_node if pos == 0 else self.member_nodes[pos - 1]

    def osts_of(self, node: str) -> tuple[str, ...]:
        """OSTs served by one member, assigned round-robin from the domain list."""
        pos = self._positions.get(node)
        if pos is None:
            return ()
        return self.osts[pos - 1::len(self.member_nodes)]


@dataclass(frozen=True)
class OverlayTopology:
    domains: tuple[DomainSpec, ...]
    ring_order: tuple[str, ...]
    root_node: str
    _node_domain: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        ids = [d.domain_id for d in self.domains]
        if len(ids) != len(set(ids)):
            raise ConfigError("duplicate domain ids")
        seen: dict[str, str] = {}
        for d in self.domains:
            if d.fanout < 2:
                raise ConfigError(f"domain {d.domain_id}: fanout must be >= 2")
            if d.lustre_role not in LUSTRE_ROLES:
                raise ConfigError(f"domain {d.domain_id}: bad role {d.lustre_role!r}")
            if not d.member_nodes:
                raise ConfigError(f"domain {d.domain_id}: no members")
            if d.osts and d.lustre_role != "oss":
                raise ConfigError(f"domain {d.domain_id}: osts only valid for oss domains")
            for node in d.member_nodes:
                if node in seen and seen[node] != d.domain_id:
                    raise ConfigError(f"node {node} appears in domains {seen[node]} and {d.domain_id}")
                if node in seen:
                    raise ConfigError(f"duplicate node {node} in domain {d.domain_id}")
                seen[node] = d.domain_id
        if sorted(self.ring_order) != sorted(ids):
            raise ConfigError("ring order must be a permutation of all domain ids")
        if self.root_node in seen:
            raise ConfigError(f"root node {self.root_node} must not host an agent")
        managers = {d.manager_node for d in self.domains}
        if self.root_node in managers:
            raise ConfigError(f"root node {self.root_node} cannot also be a manager")
        self._node_domain.update(seen)

    def domain(self, domain_id: str) -> DomainSpec:
        for d in self.domains:
            if d.domain_id == domain_id:
                return d
        raise KeyError(domain_id)

    def domain_of_node(self, node: str) -> DomainSpec:
        try:
            return self.domain(self._node_domain[node])
        except KeyError:
            raise KeyError(f"unknown node {node!r}") from None

    def has_node(self, node: str) -> bool:
        return node in self._node_domain

    def all_nodes(self) -> list[str]:
        return [n for d in self.domains for n in d.member_nodes]

    def filesystems(self) -> list[str]:
        names = {fs for d in self.domains for fs in d.filesystems}
        return sorted(names)

    def servers(self, role: str) -> list[str]:
        return [n for d in self.domains if d.lustre_role == role for n in d.member_nodes]

    def ost_to_server(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for d in self.domains:
            if d.lustre_role != "oss":
                continue
            for node in d.member_nodes:
                for ost in d.osts_of(node):
                    out[ost] = node
        return out


def _split_list(value: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in value.split(",") if part.strip())
    return items


def parse_topology(text: str, source: str = "<topology>") -> OverlayTopology:
    """Parse the topology config grammar; unknown keys are rejected."""
    sections = parse_sections(text, source)
    return topology_from_sections(sections, source)


def parse_sections(text: str, source: str) -> list[tuple[str, list[tuple[int, str, str]], list[tuple[int, str]]]]:
    """Generic section splitter: [header] followed by key=value or bare lines."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), [], [])
            sections.append(current)
            continue
        if current is None:
            raise ConfigError(f"{source}:{lineno}: content before any section header")
        if "=" in line:
            key, _, value = line.partition("=")
            current[1].append((lineno, key.strip(), value.strip()))
        else:
            current[2].append((lineno, line))
    return sections


_DOMAIN_KEYS = {"manager", "members", "fanout", "role", "fs", "osts"}
_RING_KEYS = {"order", "root"}


def topology_from_sections(sections, source: str) -> OverlayTopology:
    domains: list[DomainSpec] = []
    ring_order: tuple[str, ...] = ()
    root_node = ""
    saw_ring = False

    for header, pairs, bare in sections:
        if header.startswith("domain "):
            domain_id = header[len("domain "):].strip()
            if not domain_id:
                raise ConfigError(f"{source}: empty domain id")
            values: dict[str, str] = {}
            for lineno, key, value in pairs:
                if key not in _DOMAIN_KEYS:
                    raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [domain {domain_id}]")
                values[key] = value
            if bare:
                raise ConfigError(f"{source}:{bare[0][0]}: stray line in [domain {domain_id}]")
            for needed in ("manager", "members", "fanout", "role"):
                if needed not in values:
                    raise ConfigError(f"{source}: [domain {domain_id}] missing key {needed!r}")
            try:
                fanout = int(values["fanout"])
            except ValueError:
                raise ConfigError(f"{source}: [domain {domain_id}] fanout must be an integer") from None
            domains.append(DomainSpec(
                domain_id=domain_id,
                manager_node=values["manager"],
                member_nodes=_split_list(values["members"]),
                fanout=fanout,
                lustre_role=values["role"],
                filesystems=_split_list(values.get("fs", "")),
                osts=_split_list(values.get("osts", "")),
            ))
        elif header == "ring":
            saw_ring = True
            for lineno, key, value in pairs:
                if key not in _RING_KEYS:
                    raise ConfigError(f"{source}:{lineno}: unknown key {key!r} in [ring]")
                if key == "order":
                    ring_order = _split_list(value)
                else:
                    root_node = value
        elif header in ("scenario", "workload", "endpoints"):
            continue  # owned by other parsers
        else:
            raise ConfigError(f"{source}: unknown section [{header}]")

    if not domains:
        raise ConfigError(f"{source}: no domains defined")
    if not saw_ring or not ring_order or not root_node:
        raise ConfigError(f"{source}: [ring] section with order= and root= is required")
    return OverlayTopology(tuple(domains), ring_order, root_node)


def load_topology(path: str) -> OverlayTopology:
    with open(path, encoding="utf-8") as fh:
        return parse_topology(fh.read(), source=path)
