"""Network data model, on-disk JSON format and the node-line incidence matrix.

A network is a connected graph of buses (nodes) and transmission lines.  Each
node carries an injection ``power`` (positive generation, negative load), an
``inertia`` and ``damping`` coefficient and a disturbance strength ``noise``;
each line carries a positive ``capacity`` (effective susceptance).  The
``Network`` object is immutable after construction and is the single source of
truth for every downstream computation.
"""
from __future__ import annotations

import collections
import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import NetworkParseError, NetworkValidationError

#: absolute tolerance on sum(power) == 0
POWER_BALANCE_TOL = 1e-9

_NODE_FIELDS = ("id", "power", "inertia", "damping", "noise")
_LINE_FIELDS = ("from", "to", "capacity")


@dataclass(frozen=True)
class Node:
    """A bus: 1-based ``id``, injection and machine parameters."""

    id: int
    power: float
    inertia: float
    damping: float
    noise: float

    def __post_init__(self):
        for name in ("power", "inertia", "damping", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise NetworkValidationError(f"node {self.id}: {name} must be finite")
        if self.inertia <= 0.0:
            raise NetworkValidationError(f"node {self.id}: inertia must be > 0")
        if self.damping <= 0.0:
            raise NetworkValidationError(f"node {self.id}: damping must be > 0")
        if self.noise < 0.0:
            raise NetworkValidationError(f"node {self.id}: noise must be >= 0")


@dataclass(frozen=True)
class Line:
    """A transmission line between two node ids, with positive capacity."""

    from_node: int
    to_node: int
    capacity: float

    def __post_init__(self):
        if self.from_node == self.to_node:
            raise NetworkValidationError(
                f"line ({self.from_node},{self.to_node}): self-loops are not allowed"
            )
        if not math.isfinite(self.capacity):
            raise NetworkValidationError(
                f"line ({self.from_node},{self.to_node}): capacity must be finite"
            )
        if self.capacity <= 0.0:
            raise NetworkValidationError(
                f"line ({self.from_node},{self.to_node}): capacity must be > 0"
            )


@dataclass(frozen=True)
class Network:
    """Validated, immutable node/line graph.

    Node ids must be the contiguous integers ``1..n`` in list order; lines are
    indexed by their declaration order (1-based in reports).  Construction
    checks connectivity, power balance, duplicate lines and parameter signs,
    raising :class:`NetworkValidationError` naming the violated invariant.
    """

    nodes: tuple[Node, ...]
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "lines", tuple(self.lines))
        n = len(self.nodes)
        if n == 0:
            raise NetworkValidationError("network has no nodes")
        for pos, node in enumerate(self.nodes):
            if node.id != pos + 1:
                raise NetworkValidationError(
                    f"node ids must be 1..{n} in order (position {pos} has id {node.id})"
                )
        seen: set[frozenset[int]] = set()
        for line in self.lines:
            for end in (line.from_node, line.to_node):
                if not 1 <= end <= n:
                    raise NetworkValidationError(
                        f"line ({line.from_node},{line.to_node}): unknown node id {end}"
                    )
            key = frozenset((line.from_node, line.to_node))
            if key in seen:
                raise NetworkValidationError(
                    f"duplicate line between nodes {line.from_node} and {line.to_node}"
                )
            seen.add(key)
        imbalance = abs(sum(node.power for node in self.nodes))
        if imbalance > POWER_BALANCE_TOL:
            raise NetworkValidationError(
                f"power imbalance: sum of injections is {imbalance:.3e} (must be 0)"
            )
        if not self._connected():
            raise NetworkValidationError("graph is not connected")

    def _connected(self) -> bool:
        n = self.n
        if n == 1:
            return True
        adj: dict[int, list[int]] = {i: [] for i in range(n)}
        for line in self.lines:
            a, b = line.from_node - 1, line.to_node - 1
            adj[a].append(b)
            adj[b].append(a)
        seen = {0}
        queue = collections.deque([0])
        while queue:
            i = queue.popleft()
            for j in adj[i]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen) == n

    # -- dense parameter views (0-based, read-only) --------------------------

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return len(self.lines)

    @cached_property
    def power(self) -> np.ndarray:
        return _frozen(np.array([node.power for node in self.nodes]))

    @cached_property
    def inertia(self) -> np.ndarray:
        return _frozen(np.array([node.inertia for node in self.nodes]))

    @cached_property
    def damping(self) -> np.ndarray:
        return _frozen(np.array([node.damping for node in self.nodes]))

    @cached_property
    def noise(self) -> np.ndarray:
        return _frozen(np.array([node.noise for node in self.nodes]))

    @cached_property
    def line_from(self) -> np.ndarray:
        return _frozen(np.array([line.from_node - 1 for line in self.lines], dtype=np.int64))

    @cached_property
    def line_to(self) -> np.ndarray:
        return _frozen(np.array([line.to_node - 1 for line in self.lines], dtype=np.int64))

    @cached_property
    def capacity(self) -> np.ndarray:
        return _frozen(np.array([line.capacity for line in self.lines]))

    @cached_property
    def incidence_array(self) -> np.ndarray:
        """Dense n-by-m incidence: +1 at a line's from node, -1 at its to node."""
        c = np.zeros((self.n, self.m))
        for k, line in enumerate(self.lines):
            c[line.from_node - 1, k] = 1.0
            c[line.to_node - 1, k] = -1.0
        return _frozen(c)

    # -- derived networks -----------------------------------------------------

    def with_arrays(
        self,
        power: np.ndarray | None = None,
        inertia: np.ndarray | None = None,
        damping: np.ndarray | None = None,
        noise: np.ndarray | None = None,
        capacity: np.ndarray | None = None,
    ) -> "Network":
        """Copy of this network with whole parameter vectors replaced."""
        power = self.power if power is None else np.asarray(power, dtype=float)
        inertia = self.inertia if inertia is None else np.asarray(inertia, dtype=float)
        damping = self.damping if damping is None else np.asarray(damping, dtype=float)
        noise = self.noise if noise is None else np.asarray(noise, dtype=float)
        capacity = self.capacity if capacity is None else np.asarray(capacity, dtype=float)
        nodes = tuple(
            Node(i + 1, float(power[i]), float(inertia[i]), float(damping[i]), float(noise[i]))
            for i in range(self.n)
        )
        lines = tuple(
            Line(line.from_node, line.to_node, float(capacity[k]))
            for k, line in enumerate(self.lines)
        )
        return Network(nodes, lines)

    def with_added_line(self, from_node: int, to_node: int, capacity: float) -> "Network":
        return Network(self.nodes, self.lines + (Line(from_node, to_node, capacity),))

    def with_line_capacity(self, line_index: int, capacity: float) -> "Network":
        """Copy with line ``line_index`` (1-based) set to ``capacity``."""
        if not 1 <= line_index <= self.m:
            raise NetworkValidationError(f"no line with index {line_index}")
        cap = self.capacity.copy()
        cap[line_index - 1] = capacity
        return self.with_arrays(capacity=cap)

    def to_dict(self) -> dict:
        return {
            "nodes": [
                {
                    "id": node.id,
                    "power": node.power,
                    "inertia": node.inertia,
                    "damping": node.damping,
                    "noise": node.noise,
                }
                for node in self.nodes
            ],
            "lines": [
                {"from": line.from_node, "to": line.to_node, "capacity": line.capacity}
                for line in self.lines
            ],
        }


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise NetworkParseError(f"{where}: expected an integer, got {value!r}")
    return value


def network_from_dict(doc: dict) -> Network:
    """Build and validate a :class:`Network` from the JSON document structure."""
    if not isinstance(doc, dict):
        raise NetworkParseError("top-level document must be an object")
    unknown = set(doc) - {"nodes", "lines"}
    if unknown:
        raise NetworkParseError(f"unknown top-level fields: {sorted(unknown)}")
    if "nodes" not in doc or "lines" not in doc:
        raise NetworkParseError('document must contain "nodes" and "lines"')
    if not isinstance(doc["nodes"], list) or not isinstance(doc["lines"], list):
        raise NetworkParseError('"nodes" and "lines" must be arrays')

    nodes = []
    for pos, entry in enumerate(doc["nodes"]):
        if not isinstance(entry, dict):
            raise NetworkParseError(f"nodes[{pos}]: expected an object")
        unknown = set(entry) - set(_NODE_FIELDS)
        if unknown:
            raise NetworkParseError(f"nodes[{pos}]: unknown fields {sorted(unknown)}")
        missing = set(_NODE_FIELDS) - set(entry)
        if missing:
            raise NetworkParseError(f"nodes[{pos}]: missing fields {sorted(missing)}")
        nodes.append(
            Node(
                id=_require_int(entry["id"], f"nodes[{pos}].id"),
                power=_require_number(entry["power"], f"nodes[{pos}].power"),
                inertia=_require_number(entry["inertia"], f"nodes[{pos}].inertia"),
                damping=_require_number(entry["damping"], f"nodes[{pos}].damping"),
                noise=_require_number(entry["noise"], f"nodes[{pos}].noise"),
            )
        )
    lines = []
    for pos, entry in enumerate(doc["lines"]):
        if not isinstance(entry, dict):
            raise NetworkParseError(f"lines[{pos}]: expected an object")
        unknown = set(entry) - set(_LINE_FIELDS)
        if unknown:
            raise NetworkParseError(f"lines[{pos}]: unknown fields {sorted(unknown)}")
        missing = set(_LINE_FIELDS) - set(entry)
        if missing:
            raise NetworkParseError(f"lines[{pos}]: missing fields {sorted(missing)}")
        lines.append(
            Line(
                from_node=_require_int(entry["from"], f"lines[{pos}].from"),
                to_node=_require_int(entry["to"], f"lines[{pos}].to"),
                capacity=_require_number(entry["capacity"], f"lines[{pos}].capacity"),
            )
        )
    return Network(tuple(nodes), tuple(lines))


def load_network(path) -> Network:
    """Load and validate a network from a UTF-8 JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise NetworkParseError(f"{path}: invalid JSON ({exc})") from exc
    return network_from_dict(doc)


def save_network(net: Network, path) -> None:
    """Write a network in the same JSON format accepted by :func:`load_network`."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(net.to_dict(), handle, indent=2)
        handle.write("\n")


def network_from_arrays(
    power: Iterable[float],
    inertia: Iterable[float],
    damping: Iterable[float],
    noise: Iterable[float],
    lines: Iterable[tuple[int, int, float]],
) -> Network:
    """Convenience constructor from parallel arrays and (from, to, capacity) triples."""
    power = list(power)
    nodes = tuple(
        Node(i + 1, float(p), float(m), float(d), float(b))
        for i, (p, m, d, b) in enumerate(zip(power, inertia, damping, noise))
    )
    line_objs = tuple(Line(int(a), int(b), float(c)) for a, b, c in lines)
    return Network(nodes, line_objs)
