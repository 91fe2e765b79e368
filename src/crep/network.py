"""Network data model, on-disk JSON format and the node-line incidence matrix.

A network is a connected graph of ``n`` buses and ``m`` lines held as seven
parallel arrays: per node an injection ``power`` (positive generation,
negative load), ``inertia``, ``damping`` and disturbance strength ``noise``;
per line its 0-based ends ``line_from``/``line_to`` and a positive
``capacity`` (effective susceptance).  Files and messages number nodes and
lines from 1.  A ``Network`` is immutable and is the single source of truth
for every downstream computation.

The signed incidence ``Network.incidence`` is the one line-to-node sum of the
package: the power flow's mismatch and the trajectory kernel's coupling both
reach the nodes through a product with it, which adds each node's lines in
line order.
"""
from __future__ import annotations

import dataclasses
import json
import math
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import NetworkParseError, NetworkValidationError

#: absolute tolerance on sum(power) == 0
POWER_BALANCE_TOL = 1e-9

_NODE_ARRAYS = ("power", "inertia", "damping", "noise")
_ARRAYS = _NODE_ARRAYS + ("line_from", "line_to", "capacity")
_NODE_FIELDS = ("id",) + _NODE_ARRAYS
#: caches of the line ends alone, which derived networks share: the incidence
#: (the power flow's and the kernel's line-to-node sum, each node's lines in
#: line order) and the interleaved ends (the power flow's Laplacian diagonal)
_LINE_END_CACHES = ("incidence", "line_ends")
_LINE_FIELDS = ("from", "to", "capacity")


@dataclasses.dataclass(frozen=True, eq=False)
class Network:
    """Validated, immutable network: four node arrays and three line arrays.

    The constructor copies each input into a read-only array (``int64`` for
    the line ends, ``float`` otherwise) and raises
    :class:`NetworkValidationError` naming the first violated invariant, in
    this order: each array converts (line ends to integers, without
    rounding); array shapes; nodes, in node order; lines (self-loop,
    capacity, endpoints, duplicate), in line order; power balance;
    connectivity.  Networks are equal when all seven arrays are.
    """

    power: np.ndarray
    inertia: np.ndarray
    damping: np.ndarray
    noise: np.ndarray
    line_from: np.ndarray
    line_to: np.ndarray
    capacity: np.ndarray

    def __post_init__(self):
        for name in _ARRAYS:
            given = getattr(self, name)
            is_end = name.startswith("line_")
            try:
                arr = np.array(given, np.int64 if is_end else float)
            except (OverflowError, TypeError, ValueError) as exc:
                raise NetworkValidationError(f"{name}: {exc}") from exc
            # a derived network's ends are int64 already and skip the rounding test
            if (is_end and getattr(given, "dtype", None) != np.int64
                    and not np.array_equal(arr, given)):
                raise NetworkValidationError(f"{name}: line ends must be integer node indices")
            object.__setattr__(self, name, _frozen(arr))
        _validate(self)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return all(np.array_equal(getattr(self, k), getattr(other, k)) for k in _ARRAYS)

    @property
    def n(self) -> int:
        return len(self.power)

    @property
    def m(self) -> int:
        return len(self.capacity)

    @cached_property
    def incidence(self) -> sparse.csr_array:
        """Signed n-by-m incidence: +1 at a line's from node, -1 at its to node.

        Its CSR indices are sorted, so a product with it adds each node's
        lines in line order, as a per-line loop does.  Read-only.
        """
        lines = np.arange(self.m)
        inc = sparse.csr_array(
            (np.repeat([1.0, -1.0], self.m),
             (np.concatenate((self.line_from, self.line_to)), np.concatenate((lines, lines)))),
            shape=(self.n, self.m),
        )
        inc.sort_indices()
        for arr in (inc.data, inc.indices, inc.indptr):
            _frozen(arr)
        return inc

    @cached_property
    def line_ends(self) -> np.ndarray:
        """Both ends of every line in line order: from and to of line 1, then of line 2..."""
        return _frozen(np.array((self.line_from, self.line_to)).T.ravel())

    # -- derived networks, each validated as a new one ---------------------------

    def with_arrays(
        self,
        power: np.ndarray | None = None,
        inertia: np.ndarray | None = None,
        damping: np.ndarray | None = None,
        noise: np.ndarray | None = None,
        capacity: np.ndarray | None = None,
    ) -> "Network":
        """Copy of this network with whole parameter vectors replaced.

        The copy shares this network's line ends and every array it keeps; a
        replaced vector is converted and frozen as the constructor does.  It
        raises the error the constructor would: the checks that depend on the
        line ends alone (self-loops, endpoints, duplicates, connectivity),
        which this network has passed, are not run again.
        """
        replaced = {"power": power, "inertia": inertia, "damping": damping,
                    "noise": noise, "capacity": capacity}
        derived = object.__new__(Network)
        derived.__dict__.update({name: getattr(self, name) for name in _ARRAYS})
        # the line-end caches are computed once, on this network, and shared
        derived.__dict__.update({name: getattr(self, name) for name in _LINE_END_CACHES})
        for name, given in replaced.items():
            if given is not None:
                try:
                    arr = np.array(given, float)
                except (OverflowError, TypeError, ValueError) as exc:
                    raise NetworkValidationError(f"{name}: {exc}") from exc
                derived.__dict__[name] = _frozen(arr)
        _validate(derived, ends_valid=True)
        return derived

    def with_added_line(self, from_node: int, to_node: int, capacity: float) -> "Network":
        """Copy with a line between 1-based node ids appended as line m + 1.

        The ids are checked as Python ints first, so one beyond the int64
        range gets the constructor's unknown-node message.
        """
        for node in (from_node, to_node):
            if not 1 <= node <= self.n:
                raise NetworkValidationError(
                    f"line ({from_node},{to_node}): unknown node id {node}"
                )
        return dataclasses.replace(
            self,
            line_from=np.append(self.line_from, from_node - 1),
            line_to=np.append(self.line_to, to_node - 1),
            capacity=np.append(self.capacity, capacity),
        )

    def with_line_capacity(self, line_index: int, capacity: float) -> "Network":
        """Copy with line ``line_index`` (1-based) set to ``capacity``."""
        if not 1 <= line_index <= self.m:
            raise NetworkValidationError(f"no line with index {line_index}")
        cap = self.capacity.copy()
        cap[line_index - 1] = capacity
        return self.with_arrays(capacity=cap)

    def to_dict(self) -> dict:
        nodes = zip(*(getattr(self, name).tolist() for name in _NODE_ARRAYS))
        lines = zip(self.line_from.tolist(), self.line_to.tolist(), self.capacity.tolist())
        return {
            "nodes": [
                {"id": i + 1, "power": p, "inertia": m, "damping": d, "noise": b}
                for i, (p, m, d, b) in enumerate(nodes)
            ],
            "lines": [{"from": a + 1, "to": b + 1, "capacity": c} for a, b, c in lines],
        }


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _distinct_lines_between_nodes(ends: list[tuple[int, int]], n: int) -> bool:
    """No self-loop, no duplicate line and no end outside 0..n-1."""
    keys = {(a, b) if a < b else (b, a) for a, b in ends}
    return len(keys) == len(ends) and all(0 <= a < b < n for a, b in keys)


def _validate(net: Network, ends_valid: bool = False) -> None:
    """Raise for the first violated invariant, in the order :class:`Network` lists.

    ``ends_valid`` skips the checks that depend on the node count and line
    ends alone, for a network derived from a valid one with the same of both.
    """
    n, m = net.n, net.m
    shapes = [getattr(net, name).shape for name in _ARRAYS]
    if shapes != [(n,)] * 4 + [(m,)] * 3:
        raise NetworkValidationError(
            "network arrays must be 1-D with one length per node and per line, "
            f"got shapes {dict(zip(_ARRAYS, shapes))}"
        )
    if n == 0:
        raise NetworkValidationError("network has no nodes")

    power, inertia, damping, noise = (getattr(net, name).tolist() for name in _NODE_ARRAYS)
    # Each group looks for its first offender only when a cheap all-valid test
    # fails.  A float sum is finite only if every term is; overflow merely
    # takes the slow path.
    if not (
        math.isfinite(sum(power) + sum(inertia) + sum(damping) + sum(noise))
        and min(inertia) > 0.0 and min(damping) > 0.0 and min(noise) >= 0.0
    ):
        for node, values in enumerate(zip(power, inertia, damping, noise), start=1):
            for name, value in zip(_NODE_ARRAYS, values):
                if not math.isfinite(value):
                    raise NetworkValidationError(f"node {node}: {name} must be finite")
            if values[1] <= 0.0:
                raise NetworkValidationError(f"node {node}: inertia must be > 0")
            if values[2] <= 0.0:
                raise NetworkValidationError(f"node {node}: damping must be > 0")
            if values[3] < 0.0:
                raise NetworkValidationError(f"node {node}: noise must be >= 0")

    ends = list(zip(net.line_from.tolist(), net.line_to.tolist()))
    capacity = net.capacity.tolist()
    if m and not (
        (ends_valid or _distinct_lines_between_nodes(ends, n))
        and math.isfinite(sum(capacity)) and min(capacity) > 0.0
    ):
        seen: set[tuple[int, int]] = set()
        for (a, b), c in zip(ends, capacity):
            where = f"line ({a + 1},{b + 1})"
            if a == b:
                raise NetworkValidationError(f"{where}: self-loops are not allowed")
            if not math.isfinite(c):
                raise NetworkValidationError(f"{where}: capacity must be finite")
            if c <= 0.0:
                raise NetworkValidationError(f"{where}: capacity must be > 0")
            for end in (a, b):
                if not 0 <= end < n:
                    raise NetworkValidationError(f"{where}: unknown node id {end + 1}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise NetworkValidationError(f"duplicate line between nodes {a + 1} and {b + 1}")
            seen.add(key)

    # Python's sequential sum: np.sum's pairwise order would move the tolerance edge
    imbalance = abs(sum(power))
    if imbalance > POWER_BALANCE_TOL:
        raise NetworkValidationError(
            f"power imbalance: sum of injections is {imbalance:.3e} (must be 0)"
        )
    if ends_valid:
        return
    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in ends:
        adjacent[a].append(b)
        adjacent[b].append(a)
    reached, stack = {0}, [0]
    while stack:
        for j in adjacent[stack.pop()]:
            if j not in reached:
                reached.add(j)
                stack.append(j)
    if len(reached) != n:
        raise NetworkValidationError("graph is not connected")


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise NetworkParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise NetworkParseError(f"{where}: {exc}") from exc


def _require_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise NetworkParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_fields(entry, where: str, fields: tuple[str, ...]) -> None:
    if not isinstance(entry, dict):
        raise NetworkParseError(f"{where}: expected an object")
    unknown = set(entry) - set(fields)
    if unknown:
        raise NetworkParseError(f"{where}: unknown fields {sorted(unknown)}")
    missing = set(fields) - set(entry)
    if missing:
        raise NetworkParseError(f"{where}: missing fields {sorted(missing)}")


def network_from_dict(doc: dict) -> Network:
    """Build and validate a :class:`Network` from the JSON document structure.

    Node ids must be ``1..n`` in list order; lines name their ends by id.
    """
    if not isinstance(doc, dict):
        raise NetworkParseError("top-level document must be an object")
    unknown = set(doc) - {"nodes", "lines"}
    if unknown:
        raise NetworkParseError(f"unknown top-level fields: {sorted(unknown)}")
    if "nodes" not in doc or "lines" not in doc:
        raise NetworkParseError('document must contain "nodes" and "lines"')
    if not isinstance(doc["nodes"], list) or not isinstance(doc["lines"], list):
        raise NetworkParseError('"nodes" and "lines" must be arrays')

    n = len(doc["nodes"])
    columns: dict[str, list] = {name: [] for name in _ARRAYS}
    for pos, entry in enumerate(doc["nodes"]):
        _require_fields(entry, f"nodes[{pos}]", _NODE_FIELDS)
        node_id = _require_int(entry["id"], f"nodes[{pos}].id")
        if node_id != pos + 1:
            raise NetworkValidationError(
                f"node ids must be 1..{n} in order (position {pos} has id {node_id})"
            )
        for name in _NODE_ARRAYS:
            columns[name].append(_require_number(entry[name], f"nodes[{pos}].{name}"))
    for pos, entry in enumerate(doc["lines"]):
        _require_fields(entry, f"lines[{pos}]", _LINE_FIELDS)
        columns["line_from"].append(_require_int(entry["from"], f"lines[{pos}].from") - 1)
        columns["line_to"].append(_require_int(entry["to"], f"lines[{pos}].to") - 1)
        columns["capacity"].append(_require_number(entry["capacity"], f"lines[{pos}].capacity"))
    return Network(**columns)


def load_network(path) -> Network:
    """Load and validate a network from a UTF-8 JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    """Network from parallel node arrays and 1-based (from, to, capacity) triples."""
    lines = [(a - 1, b - 1, c) for a, b, c in lines]
    line_from, line_to, capacity = zip(*lines) if lines else ((), (), ())
    nodes = (list(values) for values in (power, inertia, damping, noise))
    return Network(*nodes, line_from, line_to, capacity)
