"""In-memory span tracing around the public names of each fockgate layer.

``Tracer.install`` replaces each wrapped name in the module where its callers
look it up (``fockgate.synthesis.pair_gate``, ``fockgate.cli.execute_plan``,
...), so the program itself is unchanged; ``uninstall`` puts the originals
back.  Untraced benchmark runs never call ``install``.

A span records name, layer, start, end, parent, op id, thread id and an
optional count.  A span opened on a thread with no open span of its own (the
sweep's pool threads) takes as parent the innermost open span of the thread
that installed the tracer, which is blocked waiting for the pool.

Self time is a span's duration minus the union of its children's intervals.
Spans on pool threads include time spent waiting for the interpreter lock,
so on ``cli_default`` the per-layer self times can add up to more than the
op time (shares above 1); ``cli.sweep_overlap`` measures exactly that.
"""

from __future__ import annotations

import gzip
import json
import os
import threading
import time
from collections import defaultdict

import fockgate.cli
import fockgate.gates
import fockgate.hamiltonians
import fockgate.propagator
import fockgate.synthesis
import fockgate.validation

NAME, LAYER, START, END, PARENT, OP, THREAD, COUNT = range(8)

# layer -> {public name: modules whose callers look that name up}
LAYERS = {
    "hamiltonians": {
        "effective_hamiltonian": (fockgate.gates, fockgate.validation, fockgate.hamiltonians),
        "full_hamiltonian": (fockgate.gates, fockgate.validation),
        "decompose_effective": (fockgate.gates, fockgate.validation),
        "multiquantum_hamiltonian": (fockgate.gates,),
        "selective_hamiltonian": (fockgate.validation,),
    },
    "gates": {
        "pair_gate": (fockgate.gates, fockgate.synthesis, fockgate.cli, fockgate.validation),
    },
    "spaces": {
        "tensor": (fockgate.gates, fockgate.hamiltonians, fockgate.validation),
        "reduced_oscillator_state": (fockgate.synthesis, fockgate.cli, fockgate.validation),
        "purity": (fockgate.synthesis, fockgate.cli, fockgate.validation),
        "fidelity": (fockgate.cli,),
        "product_state": (fockgate.cli, fockgate.validation),
    },
    "synthesis.execute": {
        "execute_plan": (fockgate.synthesis, fockgate.cli),
    },
    "synthesis.compile": {
        "plan_general_state": (fockgate.synthesis, fockgate.cli),
        "plan_superposition": (fockgate.synthesis, fockgate.cli),
    },
    "synthesis.io": {
        "plan_to_dict": (fockgate.synthesis,),
        "plan_from_dict": (fockgate.synthesis,),
        "save_plan": (fockgate.synthesis, fockgate.cli),
        "load_plan": (fockgate.synthesis,),
    },
    "config": {
        "load_config": (fockgate.cli,),
    },
    "cli": {
        "cmd_gate": (fockgate.cli,),
        "cmd_sweep": (fockgate.cli,),
        "cmd_synthesize": (fockgate.cli,),
        "cmd_validate": (fockgate.cli,),
    },
    "validation": {
        "run_validation": (fockgate.cli,),
    },
}
PROPAGATOR_USERS = (fockgate.gates, fockgate.validation, fockgate.propagator)


def _count(name: str, args, result) -> int:
    """Work count a span carries: steps, gates, bytes or matrix dimension."""
    if name == "execute_plan":
        return len(args[0].steps)
    if name in ("plan_general_state", "plan_superposition"):
        return len(result)
    if name in ("save_plan", "load_plan"):
        return os.path.getsize(args[1] if name == "save_plan" else args[0])
    if name == "eigh":
        return args[0].shape[0]
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root_stack: list[int] = []
        self._root_thread = threading.get_ident()
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, layer: str, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._root_stack[-1] if self._root_stack else -1
        span = [name, layer, time.perf_counter(), 0.0, parent, self.op, threading.get_ident(), 0]
        with self._lock:  # pool threads append too: the index must be this span's
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        span[COUNT] = _count(name, args, result)
        return result

    def span_op(self, fn, *args):
        """Run one benchmark op inside an ``op`` span."""
        self.op += 1
        return self.call("op", "op", fn, args, {})

    def _wrap(self, name: str, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, layer, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, obj, attr: str, value):
        self._saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        for layer, names in LAYERS.items():
            for name, modules in names.items():
                for module in modules:
                    self._patch(module, name, self._wrap(name, layer, getattr(module, name)))
        tracer = self
        base = fockgate.propagator.Propagator

        class TracedPropagator(base):
            def __init__(self, *args, **kwargs):
                tracer.call("Propagator.__init__", "propagator",
                            super().__init__, args, kwargs)

            def unitary(self, t):
                return tracer.call("Propagator.unitary", "propagator",
                                   super().unitary, (t,), {})

        for module in PROPAGATOR_USERS:
            self._patch(module, "Propagator", TracedPropagator)
        np_module = fockgate.propagator.np
        linalg = _Proxy(np_module.linalg, eigh=self._wrap("eigh", "propagator", np_module.linalg.eigh))
        self._patch(fockgate.propagator, "np", _Proxy(np_module, linalg=linalg))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, value = self._saved.pop()
            setattr(obj, attr, value)

    def write(self, path: str) -> None:
        """Dump every span as one JSON line (gzip)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        keys = ("name", "layer", "start", "end", "parent", "op", "thread", "count")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Proxy:
    """Module stand-in that overrides a few attributes and forwards the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-op layer metrics from one traced run's spans."""
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    ops = [s for s in spans if s[LAYER] == "op"]
    n_ops = max(len(ops), 1)
    op_time = sum(s[END] - s[START] for s in ops)

    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    under_gate = [False] * len(spans)
    gates = eighs = eighs_in_gate = unitaries = builds_in_gate = max_dim = 0
    eigh_time = work_d3 = 0.0
    counts: dict[str, int] = defaultdict(int)
    sweep_wall = sweep_child = 0.0
    for i, s in enumerate(spans):
        parent = s[PARENT]
        if parent >= 0:
            under_gate[i] = spans[parent][NAME] == "pair_gate" or under_gate[parent]
        kids = [(spans[c][START], spans[c][END]) for c in children[i]]
        duration = s[END] - s[START]
        self_time[s[LAYER]] += duration - _covered(kids)
        counts[s[LAYER]] += s[COUNT]
        name = s[NAME]
        if name == "eigh":
            eighs += 1
            eighs_in_gate += under_gate[i]
            eigh_time += duration
            work_d3 += s[COUNT] ** 3
            max_dim = max(max_dim, s[COUNT])
            continue
        calls[s[LAYER]] += 1
        if name == "pair_gate":
            gates += 1
        elif name == "Propagator.unitary":
            unitaries += 1
        elif s[LAYER] == "hamiltonians" and parent >= 0 and spans[parent][NAME] == "pair_gate":
            builds_in_gate += 1
        elif name == "cmd_sweep":
            sweep_wall += duration
            sweep_child += sum(hi - lo for lo, hi in kids)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer in ("propagator", *LAYERS):
        out[f"{layer}.calls"] = calls[layer] / n_ops
        out[f"{layer}.self_ms"] = 1e3 * self_time[layer] / n_ops
        out[f"{layer}.share"] = ratio(self_time[layer], op_time)
    out["propagator.eigh_ms"] = 1e3 * eigh_time / n_ops
    out["propagator.eigh_per_gate"] = ratio(eighs_in_gate, gates)
    out["propagator.unitary_per_eigh"] = ratio(unitaries, eighs)
    out["propagator.work_d3"] = work_d3 / n_ops
    out["propagator.max_dim"] = float(max_dim)
    out["hamiltonians.builds_per_gate"] = ratio(builds_in_gate, gates)
    out["synthesis.execute.steps"] = counts["synthesis.execute"] / n_ops
    out["synthesis.compile.gates"] = counts["synthesis.compile"] / n_ops
    out["synthesis.io.bytes"] = counts["synthesis.io"] / n_ops
    out["cli.sweep_overlap"] = ratio(sweep_child, sweep_wall)
    return out
