"""Network data model, on-disk JSON format and the node-line incidence matrix.

A network is a connected graph of ``n`` buses and ``m`` lines held as seven
parallel arrays: per node an injection ``power`` (positive generation,
negative load), ``inertia``, ``damping`` and disturbance strength ``noise``;
per line its 0-based ends ``line_from``/``line_to`` and a positive
``capacity`` (effective susceptance).  Files and messages number nodes and
lines from 1.  A ``Network`` is immutable and is the single source of truth
for every downstream computation.

Every line-to-node sum of the package adds each node's lines in line order,
starting from 0: the trajectory kernel's coupling through a product with the
signed incidence ``Network.incidence``, the power flow's mismatch by adding
the signed flows at ``Network.line_ends``, and every Laplacian by adding the
line weights at ``Network.laplacian_index``.
"""
from __future__ import annotations

import dataclasses
import json
import math
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy import sparse

from .errors import NetworkParseError, NetworkValidationError, is_number

#: the terms of the power flow's stopping tolerance; see :func:`balance_tolerance`
TOL = 1e-10
TOL_SCALE = 64
_EPS = float(np.finfo(float).eps)

_NODE_ARRAYS = ("power", "inertia", "damping", "noise")
_ARRAYS = _NODE_ARRAYS + ("line_from", "line_to", "capacity")
_NODE_FIELDS = ("id",) + _NODE_ARRAYS
#: caches of the line ends alone, which derived networks share: the incidence
#: (the kernel's line-to-node sum), the interleaved ends (the power flow's) and
#: the Laplacian entries' positions
_LINE_END_CACHES = ("incidence", "line_ends", "laplacian_index")
_LINE_FIELDS = ("from", "to", "capacity")
#: what a node violates, for each of its checks in the order they run
_NODE_FAULTS = tuple(f"{name} must be finite" for name in _NODE_ARRAYS) + (
    "inertia must be > 0", "damping must be > 0", "noise must be >= 0")


@dataclasses.dataclass(frozen=True, eq=False)
class Network:
    """Validated, immutable network: four node arrays and three line arrays.

    The constructor copies each input into a read-only array (``int64`` for
    the line ends, ``float`` otherwise) and raises
    :class:`NetworkValidationError` naming the first violated invariant, in
    this order: each array converts (line ends to integers, without
    rounding) and holds integers or floats, not bools or strings; array
    shapes; nodes, in node order; lines (self-loop, capacity, endpoints,
    duplicate), in line order; power balance (see
    :func:`balance_tolerance`); connectivity.  Every network, a derived copy
    included, is built and checked by the constructor.  Networks are equal
    when all seven arrays are.
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
            given, is_end = getattr(self, name), name.startswith("line_")
            try:
                arr = np.array(given, np.int64 if is_end else float)
            except (OverflowError, TypeError, ValueError) as exc:
                raise NetworkValidationError(f"{name}: {exc}") from exc
            dtype = np.asarray(given).dtype
            if dtype.kind not in "iuf":  # a bool is not an integer
                raise NetworkValidationError(f"{name}: expected integers or floats, got {dtype}")
            if is_end and not np.array_equal(arr, given):
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

    @cached_property
    def laplacian_index(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(line, sign, flat position) of every Laplacian entry, line by line:
        (a, a), (b, b), (a, b), (b, a) of a line from a to b, weighted +w, +w,
        -w, -w.  Returns ``(full, grounded)``: for the n-by-n matrix, and for
        the entries off node 1's row and column in the (n-1)-by-(n-1) matrix
        without them (the power flow's Jacobian).  Read-only."""
        n, ends = self.n, (self.line_from, self.line_to)
        rows, cols = np.array(ends * 2).T.ravel(), np.array(ends + ends[::-1]).T.ravel()
        lines, signs = np.arange(self.m).repeat(4), np.tile([1.0, 1.0, -1.0, -1.0], self.m)
        kept = (rows > 0) & (cols > 0)
        grounded = (lines[kept], signs[kept], (rows[kept] - 1) * (n - 1) + cols[kept] - 1)
        return tuple(map(_frozen, (lines, signs, rows * n + cols))), tuple(map(_frozen, grounded))

    # -- derived networks -----------------------------------------------------

    def with_arrays(
        self,
        power: np.ndarray | None = None,
        inertia: np.ndarray | None = None,
        damping: np.ndarray | None = None,
        noise: np.ndarray | None = None,
        capacity: np.ndarray | None = None,
    ) -> "Network":
        """Copy of this network with whole parameter vectors replaced.

        The copy is built and checked by the constructor, and then takes
        over this network's line-end caches, so a sweep point does not
        rebuild the incidence.
        """
        replaced = {"power": power, "inertia": inertia, "damping": damping,
                    "noise": noise, "capacity": capacity}
        derived = dataclasses.replace(
            self, **{name: given for name, given in replaced.items() if given is not None})
        derived.__dict__.update({name: getattr(self, name) for name in _LINE_END_CACHES})
        return derived

    def with_added_line(self, from_node: int, to_node: int, capacity: float) -> "Network":
        """Copy with a line between 1-based node ids appended as line m + 1.

        The ids are checked as Python ints first, so one beyond the int64
        range gets the constructor's unknown-node message.
        """
        for node in (from_node, to_node):
            if not (is_number(node) and 1 <= node <= self.n):
                raise NetworkValidationError(
                    f"line ({from_node},{to_node}): unknown node id {node!r}"
                )
        return dataclasses.replace(
            self,
            line_from=np.append(self.line_from, from_node - 1),
            line_to=np.append(self.line_to, to_node - 1),
            capacity=np.append(self.capacity, capacity),
        )

    def with_line_capacity(self, line_index: int, capacity: float) -> "Network":
        """Copy with line ``line_index`` (1-based) set to ``capacity``."""
        if not (is_number(line_index, integral=True) and 1 <= line_index <= self.m):
            raise NetworkValidationError(f"no line with index {line_index!r}")
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


def _validate(net: Network) -> None:
    """Raise for the first violated invariant, in the order :class:`Network` lists."""
    # sizes, not lengths: a 0-d array has no length
    n, m = net.power.size, net.capacity.size
    shapes = [getattr(net, name).shape for name in _ARRAYS]
    if shapes != [(n,)] * 4 + [(m,)] * 3:
        raise NetworkValidationError(
            "network arrays must be 1-D with one length per node and per line, "
            f"got shapes {dict(zip(_ARRAYS, shapes))}"
        )
    if n == 0:
        raise NetworkValidationError("network has no nodes")

    columns = (getattr(net, name).tolist() for name in _NODE_ARRAYS)
    for node, (power, inertia, damping, noise) in enumerate(zip(*columns), start=1):
        faults = (not math.isfinite(power), not math.isfinite(inertia),
                  not math.isfinite(damping), not math.isfinite(noise),
                  inertia <= 0.0, damping <= 0.0, noise < 0.0)
        if any(faults):
            raise NetworkValidationError(f"node {node}: {_NODE_FAULTS[faults.index(True)]}")

    froms, tos = net.line_from.tolist(), net.line_to.tolist()
    seen: set[tuple[int, int]] = set()
    for a, b, c in zip(froms, tos, net.capacity.tolist()):
        if a == b:
            raise NetworkValidationError(f"line ({a + 1},{b + 1}): self-loops are not allowed")
        if not math.isfinite(c):
            raise NetworkValidationError(f"line ({a + 1},{b + 1}): capacity must be finite")
        if c <= 0.0:
            raise NetworkValidationError(f"line ({a + 1},{b + 1}): capacity must be > 0")
        for end in (a, b):
            if not 0 <= end < n:
                raise NetworkValidationError(f"line ({a + 1},{b + 1}): unknown node id {end + 1}")
        key = (a, b) if a < b else (b, a)
        if key in seen:
            raise NetworkValidationError(f"duplicate line between nodes {a + 1} and {b + 1}")
        seen.add(key)

    total = imbalance(net.power)
    if not abs(total) <= balance_tolerance(net.power):
        raise NetworkValidationError(
            f"power imbalance: sum of injections is {abs(total):.3e} (must be 0)"
        )

    adjacent: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(froms, tos):
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


def shared_rows(row: np.ndarray, count: int) -> np.ndarray:
    """``count`` rows that all view ``row``, a read-only contiguous 1-D array
    such as a network's: ``np.broadcast_to(row, (count, row.size))``, built
    without its iterator."""
    return np.ndarray((count, row.size), row.dtype, row, 0, (0, row.itemsize))


def check_rows(net: Network, name: str, rows: np.ndarray) -> None:
    """Raise what ``net.with_arrays(**{name: row})`` raises for the first row it rejects.

    ``rows`` is a (B, k) float array of replacements for ``net``'s ``power``,
    ``inertia``, ``damping`` or ``capacity``.  The invariants that read the
    replaced array run once for the whole stack: every entry finite, and each
    row balanced by :func:`balance_tolerance` (``power``) or every entry > 0
    (the others).  Each row that fails them, in order, is passed to
    :meth:`Network.with_arrays`, which raises the first one's error.
    """
    if (name != "power" and 0.0 < np.minimum.reduce(rows, axis=None, initial=math.inf)
            and np.maximum.reduce(rows, axis=None, initial=0.0) < math.inf):
        return  # every entry finite and > 0; a NaN fails both comparisons
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite rows fail anyway
        bad = ~np.isfinite(rows).all(axis=1)
        if name == "power":
            bad |= ~(np.abs(imbalance(rows)) <= balance_tolerance(rows))
        else:
            bad |= (rows <= 0.0).any(axis=1)
    for row in rows[bad]:
        net.with_arrays(**{name: row})


@np.errstate(over="ignore")  # a sum beyond the float range is inf, never balanced
def imbalance(power: np.ndarray) -> np.ndarray:
    """Sum of ``power`` along its last axis, added left to right on every Python
    version: numpy's pairwise sum, or the builtin ``sum``, compensated from
    Python 3.12 on, would move the edge of :func:`balance_tolerance`."""
    return np.add.accumulate(power, axis=-1)[..., -1]


def balance_tolerance(power: np.ndarray) -> np.ndarray:
    """max(TOL, TOL_SCALE eps sum |P_i|) along the last axis: the power flow's
    stopping tolerance, and the most :func:`imbalance` a network may carry, as
    the Newton system leaves out node 1, whose mismatch tends to the imbalance.
    TOL_SCALE eps is a power of 2: scaling each term first is exact and finite."""
    return np.maximum(TOL, np.add.reduce(np.abs(power * (TOL_SCALE * _EPS)), axis=-1))


def _require_number(value, where: str) -> float:
    if not is_number(value):
        raise NetworkParseError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise NetworkParseError(f"{where}: {exc}") from exc


def _require_int(value, where: str) -> int:
    if not is_number(value, integral=True):
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
    lines = [tuple(line) if np.iterable(line) else (line,) for line in lines]
    for pos, line in enumerate(lines):
        if len(line) != 3 or not (is_number(line[0]) and is_number(line[1])):
            raise NetworkValidationError(
                f"lines[{pos}]: expected (from, to, capacity) with numeric ends, got {line!r}")
    lines = [(a - 1, b - 1, c) for a, b, c in lines]
    line_from, line_to, capacity = zip(*lines) if lines else ((), (), ())
    nodes = (list(values) for values in (power, inertia, damping, noise))
    return Network(*nodes, line_from, line_to, capacity)
