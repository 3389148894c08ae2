"""In-memory span tracing of svycdf's public functions.

``Tracer.install()`` replaces every public function of the traced modules,
and every by-name binding of it in those modules (``montecarlo`` and
``population`` import ``substream`` by name), with a wrapper that records
one span per call, then restores the originals on exit.  Click commands in
``svycdf.cli`` are traced through their callbacks.  Spans form a tree
through a stack of open span ids; a span's self time is its duration minus
the durations of its children, so the self times of all spans under a root
add up to the root's duration.  Methods are not wrapped: their time counts
toward the public function that calls them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import click

LAYERS = ("streams", "population", "designs", "estimation", "asymptotics",
          "oracle", "montecarlo", "cli")

#: design kind -> label used by the harness and the per-design draw metrics
DESIGN_LABELS = {"srswor": "SI", "bernoulli": "BE", "poisson": "PO", "rejective": "REJ"}


def _design_label(design, *args, **kwargs):
    """Tag of a ``designs.draw`` span, so draw times split by design."""
    return DESIGN_LABELS.get(design.kind, design.kind)


class Tracer:
    """Span recorder; each span is ``[id, parent_id, name, tag, start, end]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name: str, tag) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, tag, time.perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[5] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._open(name, None)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, fn, name: str):
        tagger = _design_label if name == "designs.draw" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, tagger(*args, **kwargs) if tagger else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    @contextlib.contextmanager
    def install(self):
        """Trace every public function of the svycdf layers while active."""
        modules = [importlib.import_module(f"svycdf.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self.wrap(obj, f"{layer}.{attr}")
        patched = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        commands = [obj for obj in vars(modules[LAYERS.index("cli")]).values()
                    if isinstance(obj, click.Command) and not isinstance(obj, click.Group)
                    and obj.callback is not None]
        callbacks = [(cmd, cmd.callback) for cmd in commands]
        for cmd, callback in callbacks:
            cmd.callback = self.wrap(callback, f"cli.{cmd.name}")
        try:
            yield self
        finally:
            for module, attr, obj in patched:
                setattr(module, attr, obj)
            for cmd, callback in callbacks:
                cmd.callback = callback

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, parent, name, tag, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per (name, tag): call count and total self seconds; per root: duration.

    Returns ``{"functions": {(name, tag): [calls, self_s]},
    "layers": {layer: self_s}, "roots": {name: [count, total_s, self_s]}}``
    where a layer is the part of a span name before the first dot.
    """
    children = defaultdict(float)
    for span in spans:
        if span[1] >= 0:
            children[span[1]] += span[5] - span[4]
    functions: dict = defaultdict(lambda: [0, 0.0])
    layers: dict = defaultdict(float)
    roots: dict = defaultdict(lambda: [0, 0.0, 0.0])
    for span in spans:
        duration = span[5] - span[4]
        self_s = duration - children[span[0]]
        if span[1] < 0:
            root = roots[span[2]]
            root[0] += 1
            root[1] += duration
            root[2] += self_s
            continue
        entry = functions[(span[2], span[3])]
        entry[0] += 1
        entry[1] += self_s
        layers[span[2].split(".", 1)[0]] += self_s
    return {"functions": dict(functions), "layers": dict(layers), "roots": dict(roots)}
