"""Spans around stablab's layer boundaries, installed from outside the program.

Each boundary is wrapped at every name it is bound to: the defining module,
every stablab module that imported it (``from .paulis import multiply``
binds a second name in ``states``), and the benchmark's own modules. Methods
are wrapped on their class. A timed boundary records one span per call
(id, parent id, op index, name, start, end); a counted boundary only counts
calls, for functions too hot to time without swamping the result. Spans
stay in memory, six float64 fields each in one flat array, until
``write_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

from stablab import channels, circuits, codes, frontier, gf2, hamiltonians, paulis, states

# (metric name, owner, attribute); owner is a module or, for methods, a class
TIMED = (
    ("paulis.logical_pairs", paulis, "logical_pairs"),
    ("codes.code_parameters", codes, "code_parameters"),
    ("states.marginal", states.StabilizerMixture, "marginal"),
    ("gf2.row_echelon", gf2, "row_echelon"),
    ("channels.logical_depolarize", channels, "logical_depolarize"),
    ("paulis.dense_matrix", paulis, "dense_matrix"),
    ("hamiltonians.dense_sparsified_g", hamiltonians, "dense_sparsified_g"),
    ("hamiltonians.spectral_deviation", hamiltonians, "spectral_deviation"),
    ("hamiltonians.amplified_energy", hamiltonians, "amplified_energy"),
    ("hamiltonians.energy_report", hamiltonians, "energy_report"),
    ("states.expectation", states.StabilizerMixture, "expectation"),
    ("states.apply_gate", states.StabilizerMixture, "apply_gate"),
    ("states.mixture_init", states.StabilizerMixture, "__init__"),
    ("circuits.random_low_depth", circuits, "random_low_depth"),
    ("frontier.product_state_minimum", frontier, "product_state_minimum"),
    ("frontier.frontier_search", frontier, "frontier_search"),
)
COUNTED = (("paulis.multiply", paulis, "multiply"),)


class Tracer:
    def __init__(self, extra_modules=()):
        self.names = [name for name, _, _ in TIMED]
        self.calls = [0] * len(TIMED)
        self.busy = [0.0] * len(TIMED)
        self.self_time = [0.0] * len(TIMED)
        self.open_depth = [0] * len(TIMED)
        self.counted = [0] * len(COUNTED)
        self.spans = array("d")  # id, parent, op, name index, start, end
        self.op = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._extra_modules = tuple(extra_modules)
        self._restore: list[tuple[object, str, object]] = []

    def _timed(self, idx: int, fn):
        stack = self._stack
        spans = self.spans

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            self.open_depth[idx] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.open_depth[idx] -= 1
                dur = end - start
                self.calls[idx] += 1
                self.self_time[idx] += dur - frame[1]
                if self.open_depth[idx] == 0:
                    self.busy[idx] += dur  # outermost span only: no double count
                if stack:
                    stack[-1][1] += dur
                spans.extend((sid, parent, self.op, idx, start, end))

        return wrapper

    def _counted(self, idx: int, fn):
        counted = self.counted

        def wrapper(*args, **kwargs):
            counted[idx] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bind(self, owner, attr: str, original, wrapper):
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        modules = [m for name, m in sys.modules.items() if name.startswith("stablab")]
        for module in modules + list(self._extra_modules):
            for name, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, name, original))
                    setattr(module, name, wrapper)

    def install(self) -> None:
        for idx, (_, owner, attr) in enumerate(TIMED):
            original = getattr(owner, attr)
            self._bind(owner, attr, original, self._timed(idx, original))
        for idx, (_, owner, attr) in enumerate(COUNTED):
            original = getattr(owner, attr)
            self._bind(owner, attr, original, self._counted(idx, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self) -> dict:
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[idx], "count")
            out[f"{name}.s"] = (self.busy[idx], "s")
            out[f"{name}.self_s"] = (self.self_time[idx], "s")
        for idx, (name, _, _) in enumerate(COUNTED):
            out[f"{name}.calls"] = (self.counted[idx], "count")
        return out

    def write_spans(self, stem) -> None:
        """``stem``.bin holds rows of six float64 (fields in ``stem``.json)."""
        with open(f"{stem}.bin", "wb") as fh:
            self.spans.tofile(fh)
        header = {
            "fields": ["id", "parent", "op", "name", "start_s", "end_s"],
            "dtype": "float64",
            "rows": len(self.spans) // 6,
            "names": self.names,
        }
        with open(f"{stem}.json", "w") as fh:
            fh.write(json.dumps(header) + "\n")
