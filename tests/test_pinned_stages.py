"""Byte digests of the candidate pipeline's outputs, recorded before its stages
were rewritten to issue fewer numpy calls.

The parity tests compare a stack with its rows run alone, so a change that
moves both sides alike passes them; these digests pin the bits themselves:
of ``project_to_budget_box`` on seeded stacks of points, and of every stage
array of ``stage_arrays`` with each row's error type and message.
"""
import hashlib

import numpy as np
import pytest

import crep
from conftest import ring5_net

MIXED_DAMPING = np.array([0.8, 0.9, 0.7, 1.0, 0.6])
PARAMETERS = ("power", "inertia", "damping", "noise", "capacity")


def _digest(*parts) -> str:
    """sha256 of arrays (dtype, shape and bytes) and texts, in order."""
    sha = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            sha.update(f"{part.dtype.str}{part.shape}".encode())
            part = np.ascontiguousarray(part).tobytes()
        else:
            part = str(part).encode()
        sha.update(part)
        sha.update(b"|")
    return sha.hexdigest()[:24]


def _projection_cases():
    """name -> (points, lower, upper, budget), seeded."""
    rng = np.random.default_rng(2024)
    lower3, upper3 = rng.uniform(0.0, 1.0, 3), rng.uniform(1.5, 3.0, 3)
    lower12 = rng.uniform(-1.0, 0.5, 12)
    upper12 = lower12 + rng.uniform(0.1, 2.0, 12)
    return {
        "ring5-box": (rng.uniform(-1.0, 4.0, (200, 5)), np.full(5, 0.2), np.full(5, 3.0), 5.0),
        "narrow-3": (rng.normal(0.0, 2.0, (50, 3)), lower3, upper3,
                     float(lower3.sum() + 0.3 * (upper3 - lower3).sum())),
        "wide-12": (rng.normal(0.0, 3.0, (64, 12)), lower12, upper12,
                    float(lower12.sum() + 0.7 * (upper12 - lower12).sum())),
        "one-point": (rng.uniform(0.0, 2.0, 4), np.zeros(4), np.full(4, 2.0), 3.5),
        "corner": (rng.uniform(0.0, 2.0, (5, 4)), np.zeros(4), np.full(4, 2.0), 8.0),
    }


def _ring_with_chords(seed, n=30, chords=15):
    """Seeded ring of ``n`` nodes with ``chords`` random chords and a damping
    ratio that differs between nodes."""
    rng = np.random.default_rng(seed)
    lines = [(i, (i + 1) % n) for i in range(n)]
    taken = {frozenset(pair) for pair in lines}
    while len(lines) < n + chords:
        a, b = (int(v) for v in rng.integers(0, n, size=2))
        if a != b and frozenset((a, b)) not in taken:
            taken.add(frozenset((a, b)))
            lines.append((a, b))
    power = rng.uniform(-1.0, 1.0, n)
    power -= power.mean()
    damping = rng.uniform(0.5, 1.5, n)
    return crep.network_from_arrays(
        power, rng.uniform(0.5, 2.0, n), damping, np.sqrt(0.05 * damping),
        [(a + 1, b + 1, c) for (a, b), c in zip(lines, rng.uniform(1.0, 3.0, len(lines)))],
    )


def _stage_cases():
    """name -> (topology, rows): ring5 line capacities on the budget 5 with
    uniform and with mixed damping, and a 30-node grid's capacities scaled
    across its feasibility boundary."""
    ring5 = ring5_net()
    capacity = crep.project_to_budget_box(
        np.random.default_rng(40).uniform(0.2, 3.0, (400, 5)), np.full(5, 0.2), np.full(5, 3.0), 5.0)
    grid = _ring_with_chords(7)
    scales = np.random.default_rng(8).uniform(0.1, 1.5, 24)
    cases = {}
    for name, net, caps in (
        ("ring5-uniform", ring5, capacity),
        ("ring5-mixed", ring5.with_arrays(damping=MIXED_DAMPING), capacity),
        ("ring30-chords", grid, scales[:, None] * grid.capacity),
    ):
        rows = {key: np.broadcast_to(getattr(net, key), (len(caps), getattr(net, key).size))
                for key in PARAMETERS}
        rows["capacity"] = caps
        cases[name] = (net, rows)
    return cases


_PROJECTIONS = {
    "ring5-box": "dcd5934afbc70f0d54f43a65",
    "narrow-3": "dae5295c3cd66ff6eb25715e",
    "wide-12": "d0785e305482c36a73fa00c8",
    "one-point": "d8c3dc681f921b41821cd5b0",
    "corner": "728cc9313146b987c507946b",
}

#: per case the digest of live, the six stage arrays and the errors, and the
#: kinds of error its rows carry
_STAGES = {
    "ring5-uniform": ("9f3dc55c9ce8100aca0eb7f2", {"stalled", "iteration limit", "OutOfDomain"}),
    "ring5-mixed": ("1fc56d7e0ea0064ed1e5840c", {"stalled", "iteration limit", "OutOfDomain"}),
    "ring30-chords": ("472c5c70d17f11eb5f181c70", {"stalled", "OutOfDomain"}),
}


def _error_kind(error) -> str:
    text = str(error)
    return ("stalled" if "no damped Newton step" in text else
            "iteration limit" if "did not converge" in text else type(error).__name__)


@pytest.mark.parametrize("case", _PROJECTIONS)
def test_projection_keeps_its_recorded_bits(case):
    points, lower, upper, budget = _projection_cases()[case]
    theta = crep.project_to_budget_box(points, lower, upper, budget)
    assert _digest(theta) == _PROJECTIONS[case]


@pytest.mark.parametrize("case", _STAGES)
def test_stage_arrays_keep_their_recorded_bits(case):
    topology, rows = _stage_cases()[case]
    live, stages, errors = crep.escape.stage_arrays(topology, rows, crep.DEFAULT_EPS)
    texts = [f"{type(error).__name__}: {error}" for error in errors]
    digest = _digest(live, *(stages[name] for name in sorted(stages)), *texts)
    kinds = {_error_kind(error) for error in errors if error is not None}
    assert (digest, kinds) == _STAGES[case]
