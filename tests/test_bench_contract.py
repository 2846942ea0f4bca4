"""The benchmark's tracer still fits the library: a traced op is bit-identical.

``perfbench/`` is frozen while it measures a change, so a change to hamflow
that breaks it (a new return shape of ``integrate``, a solver that no longer
calls its layers through module bindings) would only show in its slow
self-test.  This runs one shooting op of it untraced and traced.
"""

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def _ancestors(rows, name):
    parents = {}
    for row in rows:
        parents.setdefault(row["name"], set()).add(row["parent"])
    seen, todo = set(), [name]
    while todo:
        for parent in parents.get(todo.pop(), ()):
            if parent is not None and parent not in seen:
                seen.add(parent)
                todo.append(parent)
    return seen


def test_traced_shoot_op_is_bit_identical(tmp_path):
    plain = workloads.make_round("shoot", 1, 0)[0]
    assert plain.kind.startswith("osc1_")
    tracer = spans.Tracer()
    twin = workloads.make_round("shoot", 1, 0, wrap=tracer.wrap)[0]
    _, want = plain.view(plain.call())
    tracer.op = 0
    with tracer.installed():
        _, got = twin.view(twin.call())
    assert len(got) == len(want)
    for a, b in zip(want, got):
        a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    tracer.dump(tmp_path / "spans.json", {})
    rows = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert "L4.solve_shooting" in _ancestors(rows, "L3.integrate")
    assert "L4.solve_shooting" in _ancestors(rows, "L2.midpoint_step")
