"""In-memory span tracing around calls into the slowmol modules.

The tracer wraps each public function of the traced layers where its
callers look it up: every ``slowmol.*`` module namespace that holds a
reference to the function gets the wrapper, so ``slowmol.cli`` calling its
imported ``integrate_mean_field`` and ``slowmol.protocol`` calling its own
import of the same function are both seen.  Nothing inside ``src/`` is
edited; all recording lives in this file.

Spans are kept in memory as ``(name, start, end, parent, experiment)``
tuples and written out only when the run ends.  ``ControlSchedule.omega``
is called once per quadrature node, so it is recorded as a per-parent
count and time instead of one span per call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# Layers whose public functions get spans.  ``medium`` is left out: its
# closed forms take microseconds and a span would cost more than the call,
# so its time counts in the self time of its callers.
TRACED_LAYERS = ("config", "schedule", "dynamics", "protocol", "gpe", "reports", "cli")
# Called once per formatted number: a span per call would dwarf the work.
_SKIP = {"reports.fmt_float"}
OMEGA = "schedule.omega"


def _slowmol_namespaces():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "slowmol" or name.startswith("slowmol."))]


class Patches:
    """Replaces objects in slowmol module namespaces and class dicts, and
    puts every original back on ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def replace_everywhere(self, make_wrapper, wanted) -> None:
        """Swap every module-level reference whose unwrapped target is in
        ``wanted`` (a dict target -> label) for ``make_wrapper(obj, label)``;
        one wrapper per distinct object."""
        made: dict[int, object] = {}
        for mod in _slowmol_namespaces():
            for key, obj in list(vars(mod).items()):
                if not callable(obj):
                    continue
                label = wanted.get(inspect.unwrap(obj))
                if label is None:
                    continue
                if id(obj) not in made:
                    made[id(obj)] = make_wrapper(obj, label)
                self.set(mod, key, made[id(obj)])

    def restore(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)


def public_functions(layer: str) -> dict:
    """Public functions defined in ``slowmol.<layer>``, keyed by the
    function object, labelled ``<layer>.<name>``."""
    mod = sys.modules[f"slowmol.{layer}"]
    out = {}
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        fn = inspect.unwrap(obj)
        label = f"{layer}.{name}"
        if fn.__module__ == mod.__name__ and label not in _SKIP:
            out[fn] = label
    return out


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_mean_field(counts, fn, args, kwargs):
    grid = _bound(fn, args, kwargs)["grid"]
    steps = max(1, int(round(grid.t_end / grid.dt)))
    counts["dynamics.outer_steps"] += steps
    counts["dynamics.cell_steps"] += steps * grid.n_z
    # signal plus four matter fields, complex128: computed, not measured
    counts["dynamics.state_bytes"] = max(counts["dynamics.state_bytes"], 5 * 16 * grid.n_z)


def _count_split_step(counts, fn, args, kwargs):
    bound = _bound(fn, args, kwargs)
    grid = bound["grid"]
    t_end = bound.get("t_end")
    horizon = grid.t_end if t_end is None else float(t_end)
    counts["gpe.steps"] += max(1, int(round(horizon / grid.dt)))


_COUNTERS = {
    "dynamics.integrate_mean_field": _count_mean_field,
    "gpe.split_step_evolve": _count_split_step,
}


class Tracer:
    """Span recorder; install() wraps the layers, restore() undoes it."""

    def __init__(self):
        self.spans: list = []
        self.leaf_calls: Counter = Counter()
        self.leaf_time: defaultdict = defaultdict(float)   # parent index -> s
        self.counts: Counter = Counter()
        self.experiment = -1
        self.active = False
        self._stack: list[int] = []
        self._patches = Patches()

    # ---- installation --------------------------------------------------

    def install(self) -> "Tracer":
        import slowmol.cli  # noqa: F401  (loads every traced layer)
        from slowmol.reports import ExperimentReport
        from slowmol.schedule import ControlSchedule

        wanted = {}
        for layer in TRACED_LAYERS:
            wanted.update(public_functions(layer))
        self._patches.replace_everywhere(self._wrap, wanted)
        self._patches.set(ExperimentReport, "write_series_csv",
                          self._wrap(ExperimentReport.write_series_csv,
                                     "reports.write_series_csv"))
        self._patches.set(ControlSchedule, "omega", self._wrap_leaf(ControlSchedule.omega))
        self.active = True
        return self

    def restore(self) -> None:
        self.active = False
        self._patches.restore()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, fn, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = _COUNTERS.get(label)
        target = inspect.unwrap(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.experiment)
                if counter is not None:
                    counter(self.counts, target, args, kwargs)
        return traced

    def _wrap_leaf(self, fn):
        stack, clock = self._stack, time.perf_counter
        calls, spent = self.leaf_calls, self.leaf_time

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                parent = stack[-1] if stack else -1
                spent[parent] += clock() - start
                calls[parent] += 1
        return counted

    # ---- analysis ------------------------------------------------------

    def layer_times(self) -> dict[str, float]:
        """Aggregates over all spans, keyed ``kind:name``:

        * ``name:<layer.fn>``: inclusive time of the outermost spans of fn;
        * ``layer:<layer>``: inclusive time of the outermost spans of the layer;
        * ``self:<layer>`` and ``selfname:<layer.fn>``: self time, that is
          span time minus the time its child spans cover;
        * ``calls:<layer>``: number of spans of the layer.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
        for parent, spent in self.leaf_time.items():
            if parent >= 0:
                covered[parent] += spent
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            out[f"self:{layer}"] += dur - covered[i]
            out[f"selfname:{name}"] += dur - covered[i]
            out[f"calls:{layer}"] += 1
            ancestors = set()
            j = parent
            while j >= 0:
                ancestors.add(spans[j][0])
                j = spans[j][3]
            if name not in ancestors:
                out[f"name:{name}"] += dur
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                out[f"layer:{layer}"] += dur
        total_leaf = sum(self.leaf_time.values())
        out[f"self:{OMEGA.split('.')[0]}"] += total_leaf
        out[f"name:{OMEGA}"] = total_leaf
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        lines = ["name,start_s,end_s,parent,experiment"]
        lines += [f"{n},{s - t0:.9f},{e - t0:.9f},{p},{x}" for n, s, e, p, x in self.spans]
        lines += [f"{OMEGA}[calls={c}],0,{self.leaf_time[p]:.9f},{p},-1"
                  for p, c in sorted(self.leaf_calls.items())]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
