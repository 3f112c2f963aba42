"""Spans around calls into the causalinv modules, taken from outside.

A :class:`Tracer` replaces a module-level function with a wrapper that
records a span (name, parent span, start, end, self time) each time it is
called. The wrapper is installed under every name that refers to the
function in any ``causalinv`` module, because each module looks its
imports up in its own namespace (``causalinv.cli.optimize`` and
``causalinv.experiment.optimize`` are both the ``optimize`` function).

Spans are kept in memory and written out by :meth:`Tracer.save` when the
run ends. Self time is a span's duration minus the durations of the spans
it directly encloses.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# (module, function) pairs wrapped in a traced run, named after the layer
# that owns them.
TRACED = (
    ("data", "load_dataset"), ("data", "normalize"), ("data", "split_half"),
    ("gp", "fit_gp"), ("gp", "predict_batch"), ("gp", "treatment_profile"),
    ("nets", "train_classifier"), ("nets", "train_indirect"),
    ("nets", "predict_proba"), ("nets", "grad_wrt_treatments"),
    ("optimize", "optimize"), ("optimize", "project"),
    ("experiment", "fit_side_models"), ("experiment", "run_experiment"),
    ("experiment", "ifee"),
    ("cli", "cmd_train"), ("cli", "cmd_optimize"), ("cli", "cmd_evaluate"),
)


def package_modules():
    """The causalinv package and its imported submodules."""
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "causalinv"
                                    or name.startswith("causalinv."))]


def replace_everywhere(original, replacement):
    """Rebind every causalinv module attribute that is ``original``."""
    hits = 0
    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                hits += 1
    if hits == 0:
        raise LookupError(f"{original!r} is bound in no causalinv module")


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._stack = []  # open spans: [span id, name id, start, child seconds]
        self.rows = []    # closed: (span id, name id, parent span id, start, end, self)
        self.counts = {}  # counters kept at the same boundaries as the spans
        self._installed = []

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, counter, value=1):
        self.counts[counter] = self.counts.get(counter, 0) + value

    def wrap(self, name, fn, on_exit=None):
        """Wrapper recording a span ``name`` per call; ``on_exit(args,
        kwargs, result, seconds)`` runs after the span closes."""
        nid = self._name_id(name)
        stack, rows = self._stack, self.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [len(rows) + len(stack), nid, 0.0, 0.0]
            stack.append(frame)
            frame[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame[2]
                if parent is not None:
                    parent[3] += dur
                rows.append((frame[0], nid,
                             parent[0] if parent is not None else -1,
                             frame[2], end, dur - frame[3]))
            if on_exit is not None:
                on_exit(args, kwargs, result, dur)
            return result

        return traced

    def install(self, hooks=None):
        """Wrap every function in :data:`TRACED`; ``hooks`` maps a span name
        to its ``on_exit`` callback."""
        hooks = hooks or {}
        for module, func in TRACED:
            original = getattr(sys.modules[f"causalinv.{module}"], func)
            name = f"{module}.{func}"
            wrapper = self.wrap(name, original, hooks.get(name))
            replace_everywhere(original, wrapper)
            self._installed.append((original, wrapper))

    def uninstall(self):
        """Put the unwrapped functions back."""
        while self._installed:
            original, wrapper = self._installed.pop()
            replace_everywhere(wrapper, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for _, nid, _, start, end, self_s in self.rows:
            agg = out[self.names[nid]]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
        return {k: tuple(v) for k, v in out.items()}

    def save(self, path):
        """Write every span as columns of a compressed ``.npz`` file."""
        cols = list(zip(*self.rows)) or [()] * 6
        np.savez_compressed(
            path, names=np.array(self.names),
            span_id=np.array(cols[0], dtype=np.int64),
            name_id=np.array(cols[1], dtype=np.int32),
            parent_span_id=np.array(cols[2], dtype=np.int64),
            start=np.array(cols[3]), end=np.array(cols[4]),
            self_s=np.array(cols[5]))
