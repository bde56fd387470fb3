"""Spans around permlift's public functions, recorded from outside the package.

:meth:`Tracer.install` replaces each traced function or method with a
wrapper wherever a permlift module or class refers to it, so calls made
inside the package are caught too.  Every call opens a span with a name
(its layer), a parent span and start/end times; spans are kept in memory and
written out by :meth:`Tracer.write`.  A layer's self time is the time of its
spans minus the time of their child spans.  Calls of a counted-only layer
open no span, so their time stays in the caller's self time.  Counts and self times are kept
per layer as running totals that callers difference per pass; they keep
running after a caller stops recording spans (``recording = False``).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

#: Layer name -> (module, attribute path) of every function it covers.
LAYERS = {
    "perms.reprogram": [("permlift.perms", "reprogram")],
    "perms.permutation_init": [("permlift.perms", "Permutation.__init__")],
    "qsim.apply_oracle": [("permlift.qsim", "apply_oracle")],
    "qsim.gate": [],  # filled in with every Gate subclass's apply
    "qsim.measurement_branches": [("permlift.qsim", "measurement_branches")],
    "qsim.sample_measurement": [("permlift.qsim", "sample_measurement")],
    "circuits.run": [("permlift.circuits", "run_circuit"),
                     ("permlift.circuits", "run_with_insertions")],
    "simulators.run_quantum_sim": [("permlift.simulators", "run_quantum_sim")],
    "simulators.decompose_state": [("permlift.simulators", "decompose_state")],
    "simulators.sample_sim_choice": [("permlift.simulators", "sample_sim_choice")],
    "simulators.run_classical_sim": [("permlift.simulators", "run_classical_sim")],
    "lifting.driver": [("permlift.lifting", name) for name in (
        "classical_adversary_win_exact", "classical_lifted_win_exact",
        "classical_lift_exact", "quantum_adversary_win_exact",
        "quantum_lifted_win_exact", "quantum_lift_exact", "quantum_lift_monte_carlo")],
    "games.wins": [("permlift.games", "Relation.wins")],
    "games.best_k_classical": [("permlift.games", "best_k_classical")],
    "algebra_checks.scalar": [("permlift.algebra_checks", name) for name in (
        "check_hit_miss_form", "check_partial_reprogramming", "check_good_closed_form")],
    "algebra_checks.batched": [("permlift.algebra_checks", name) for name in (
        "check_inverse_law", "check_commutativity")],
}
#: Layers whose functions are generators: a span covers each step, not the
#: time the caller spends between steps.
GENERATOR_LAYERS = {"qsim.measurement_branches"}
#: Layers whose calls are counted but open no span: win tests are part of the
#: lifting loops' own work, so their time is the driver's self time.
COUNTED_LAYERS = {"games.wins"}


def _gate_targets() -> list[tuple[str, str]]:
    from permlift import qsim

    out, todo = [], list(qsim.Gate.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "apply" in vars(cls):
            out.append((cls.__module__, f"{cls.__name__}.apply"))
    return sorted(out)


class Tracer:
    """In-memory span store with per-layer call counts and self times."""

    def __init__(self):
        self.names = list(LAYERS)
        self.index = {name: i for i, name in enumerate(self.names)}
        size = len(self.names)
        self.calls = [0] * size
        self.self_s = [0.0] * size
        self.open = [0] * size
        self.branches = 0
        self.gates_in_sim = 0
        self.paused = False
        self.recording = True
        self._stack: list[list] = []
        self._span_layer = array("H")
        self._span_parent = array("q")
        self._span_start = array("d")
        self._span_end = array("d")
        self._installed: list[tuple] = []
        self._sim = self.index["simulators.run_quantum_sim"]
        self._gate = self.index["qsim.gate"]

    # -- spans --------------------------------------------------------------

    def _enter(self, layer: int) -> None:
        sid = -1
        if self.recording:
            sid = len(self._span_start)
            self._span_layer.append(layer)
            self._span_parent.append(self._stack[-1][0] if self._stack else -1)
            self._span_end.append(0.0)
            self._span_start.append(0.0)
        self.open[layer] += 1
        if layer == self._gate and self.open[self._sim]:
            self.gates_in_sim += 1
        start = time.perf_counter()
        if sid >= 0:
            self._span_start[sid] = start
        self._stack.append([sid, layer, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        sid, layer, start, child = self._stack.pop()
        if sid >= 0:
            self._span_end[sid] = end
        self.open[layer] -= 1
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][3] += duration

    @contextlib.contextmanager
    def pause(self):
        """Context in which wrapped functions run untraced (used for checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, layer: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            tracer.calls[layer] += 1
            tracer._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()

        return wrapper

    def _wrap_counter(self, layer: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.paused:
                tracer.calls[layer] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap_generator(self, layer: int, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                yield from fn(*args, **kwargs)
                return
            tracer.calls[layer] += 1
            steps = fn(*args, **kwargs)
            while True:
                tracer._enter(layer)
                try:
                    item = next(steps)
                except StopIteration:
                    return
                finally:
                    tracer._exit()
                tracer.branches += 1
                yield item

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever permlift refers to it."""
        targets = dict(LAYERS)
        targets["qsim.gate"] = _gate_targets()
        for layer_name, entries in targets.items():
            layer = self.index[layer_name]
            if layer_name in GENERATOR_LAYERS:
                make = self._wrap_generator
            elif layer_name in COUNTED_LAYERS:
                make = self._wrap_counter
            else:
                make = self._wrap
            for module_name, path in entries:
                owner = sys.modules[module_name]
                *owner_path, attr = path.split(".")
                for part in owner_path:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                wrapped = make(layer, original)
                self._replace(owner, attr, original, wrapped)
                if not owner_path:
                    for module in list(sys.modules.values()):
                        if (getattr(module, "__name__", "").startswith("permlift")
                                and module is not owner
                                and vars(module).get(attr) is original):
                            self._replace(module, attr, original, wrapped)

    def _replace(self, owner, attr, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- readout ------------------------------------------------------------

    def totals(self) -> dict:
        """Running totals, to be differenced between two points of a run."""
        return {"calls": list(self.calls), "self_s": list(self.self_s),
                "branches": self.branches, "gates_in_sim": self.gates_in_sim}

    @property
    def span_count(self) -> int:
        return len(self._span_start)

    def write(self, path: str) -> None:
        """Save the recorded spans as a numpy .npz: ``layers`` names the
        layer indices; span i has ``layer[i]``, ``parent[i]`` (-1 at the
        top) and ``start_s[i]``/``end_s[i]`` on the perf_counter clock."""
        import numpy as np

        np.savez(path, layers=np.array(self.names),
                 layer=np.frombuffer(self._span_layer, dtype=np.uint16),
                 parent=np.frombuffer(self._span_parent, dtype=np.int64),
                 start_s=np.frombuffer(self._span_start, dtype=np.float64),
                 end_s=np.frombuffer(self._span_end, dtype=np.float64))
