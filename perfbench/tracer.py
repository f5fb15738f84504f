"""In-process span tracer for the ``smd`` package, installed from outside it.

Each public function of a layer module (and each dataclass ``__post_init__``,
where the package validates genomes and masks) is replaced by a wrapper that
records a span: name, start, end, parent span and the CLI command it ran
under. The program itself is not changed.

Modules bind names with ``from .network import forward``, so replacing the
attribute on ``smd.network`` alone would miss every call made through those
copies. ``install`` therefore rebinds every name, in every ``smd`` module,
that refers to a wrapped function, and ``uninstall`` puts the originals back.

Spans are kept in memory; ``summary`` aggregates them per name into call
counts, inclusive time and self time (a span's duration minus the time its
child spans cover).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = (
    "network", "training", "mutation", "divergence", "evolution",
    "metrics", "boundary", "checkpoint", "datasets", "config", "cli",
)

# In ``cli`` only ``main`` is wrapped: its self time then covers argument
# parsing, dispatch and the artifact writes of the command functions.
_ONLY = {"cli": {"main"}}


def _forward_work(args, kwargs, result) -> dict:
    net, inputs = args[0], args[1]
    rows = int(inputs.shape[0])
    macs = sum(i * o for i, o in net.spec.layer_shapes())
    return {"rows": rows, "flops": 2 * rows * macs}


def _spawn_work(args, kwargs, result) -> dict:
    theta = args[0]
    return {"children": len(result), "genome_bytes": len(result) * theta.w * 8}


def _csv_bytes(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


# Work counters recorded at the same boundaries as the spans. The flop and
# byte figures are computed from shapes, not measured.
COUNTERS = {
    "network.forward": _forward_work,
    "mutation.spawn_mutations": _spawn_work,
    "boundary.write_grid_csv": _csv_bytes,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, t0, t1, parent, command, self_s)
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.command = ""
        self._stack: list[list] = []  # [span index, child time]
        self._patched: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        clock = time.perf_counter
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans[frame[0]] = (name, t0, t1, parent, self.command, dur - frame[1])
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[name][key] += value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions and rebind all their aliases."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals: dict[int, object] = {}
        for layer in LAYERS:
            module = sys.modules[f"smd.{layer}"]
            only = _ONLY.get(layer)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or (only is not None and attr not in only):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and "__post_init__" in vars(obj)
                ):
                    post = vars(obj)["__post_init__"]
                    self._patch(obj, "__post_init__", self._wrap(f"{layer}.{attr}.__post_init__", post))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "smd" and not mod_name.startswith("smd."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------- reporting

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def summary(self, command: str | None = None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s, plus any work counters.

        With ``command`` only spans recorded under that CLI command count,
        and work counters are left out (they are kept per pass).
        """
        out: dict[str, dict[str, float]] = {}
        for name, t0, t1, _, cmd, self_s in self.spans:
            if command is not None and cmd != command:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += self_s
        if command is None:
            for name, counters in self.counts.items():
                out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}).update(counters)
        return out
