"""Span tracing of frobpush's layers from outside the package.

The tracer wraps the public names each caller imports (for example
``catalog.composition_count`` or ``positivity.structure_pushforward``) and
records, per call, a span (name, start, end, parent, op id), a count, and the
time the call spent outside its traced children (its self time).  Nothing in
``src/`` is edited: the wrappers are installed by rebinding module
attributes and removed again by ``uninstall``.

Leaf calls (the combinatorics in ``combinat``, ``PicClass`` and ``Line``
construction) number in the millions on a ladder pass, so they are counted
and timed but not stored one by one; their time is charged to the enclosing
span as child time.  Stored spans are capped at SPAN_CAP; calls beyond the
cap are still counted and timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

SPAN_CAP = 100_000
LAYERS = ("combinat", "picard", "catalog", "localalg", "restriction", "positivity",
          "cli", "verify")

# Layers whose functions are leaves: they call no other traced function.
LEAF_LAYERS = ("combinat",)
PICARD_LEAVES = (("PicClass", "__post_init__"), ("Line", "__init__"))
PICARD_METHODS = (("Decomposition", "sorted_items"), ("Decomposition", "rank"),
                  ("Decomposition", "dual"), ("Decomposition", "remove_trivial"),
                  ("Decomposition", "twist"), ("Decomposition", "det"),
                  ("Decomposition", "multiplicity"))
CLI_PARSE = ("build_parser", "decomposition_from_json", "descriptor_from_json")
CLI_RENDER = ("decomposition_to_json", "descriptor_to_json", "verdict_to_json",
              "render_decomposition", "render_verdict", "class_label")


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.dropped = 0
        self.op = None
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.inclusive = {"parse": 0.0, "render": 0.0}
        self.max_int_bits = 0
        self.terms_in = 0
        self.classes_out = 0
        self.case_ms: list[float] = []
        self._depth = {"parse": 0, "render": 0}
        # Each frame is [child time, stored span index]; the root never closes.
        self._stack = [[0.0, -1]]
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, fn, name: str, layer: str, kind: str | None = None):
        tracer = self
        stack = self._stack
        spans = self.spans
        is_case = name == "verify.run_case"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            if idx < SPAN_CAP:
                spans.append(None)
            else:
                idx = -1
            frame = [0.0, idx]
            stack.append(frame)
            if kind:
                tracer._depth[kind] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[0]
                if kind:
                    tracer._depth[kind] -= 1
                    if not tracer._depth[kind]:
                        tracer.inclusive[kind] += dur
                if is_case:
                    tracer.case_ms.append(dur * 1e3)
                if idx >= 0:
                    spans[idx] = (name, t0, t1, parent[1], tracer.op)
                else:
                    tracer.dropped += 1

        return wrapper

    def _leaf(self, fn, layer: str, track_bits: bool = False):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dur = time.perf_counter() - t0
            stack[-1][0] += dur
            tracer.calls[layer] += 1
            tracer.self_s[layer] += dur
            if track_bits and type(result) is int:
                bits = result.bit_length()
                if bits > tracer.max_int_bits:
                    tracer.max_int_bits = bits
            return result

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every layer's public names in every frobpush module."""
        modules = {layer: importlib.import_module(f"frobpush.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        home: dict[int, str] = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    if layer in LEAF_LAYERS:
                        wrappers[id(obj)] = self._leaf(obj, layer, track_bits=True)
                    elif layer == "cli" and name == "build_parser":
                        wrappers[id(obj)] = self._span(self._parser_builder(obj),
                                                       "cli.build_parser", layer, "parse")
                    else:
                        kind = ("parse" if name in CLI_PARSE else
                                "render" if name in CLI_RENDER else None)
                        kind = kind if layer == "cli" else None
                        wrappers[id(obj)] = self._span(obj, f"{layer}.{name}", layer, kind)
                    home[id(obj)] = layer
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                key = id(obj)
                if key not in wrappers:
                    continue
                # A leaf layer's calls into itself stay unwrapped, so a leaf
                # never encloses another traced call.
                if home[key] == layer and layer in LEAF_LAYERS:
                    continue
                self._patch(mod, name, wrappers[key])

        picard = modules["picard"]
        for cls_name, meth in PICARD_LEAVES:
            cls = getattr(picard, cls_name)
            self._patch(cls, meth, self._leaf(getattr(cls, meth), "picard"))
        for cls_name, meth in PICARD_METHODS:
            cls = getattr(picard, cls_name)
            self._patch(cls, meth, self._span(getattr(cls, meth),
                                              f"picard.{cls_name}.{meth}", "picard"))
        decomposition = picard.Decomposition
        self._patch(decomposition, "__init__",
                    self._span(self._counting_init(decomposition.__init__),
                               "picard.Decomposition.__init__", "picard"))

        cli = modules["cli"]
        proxy = types.ModuleType("json")
        proxy.__dict__.update(json.__dict__)
        proxy.dumps = self._span(json.dumps, "cli.json.dumps", "cli", "render")
        self._patch(cli, "json", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _counting_init(self, init):
        tracer = self

        @functools.wraps(init)
        def counting_init(decomp, variety, items, *args, **kwargs):
            items = list(items)
            tracer.terms_in += len(items)
            init(decomp, variety, items, *args, **kwargs)
            tracer.classes_out += len(decomp.entries)

        return counting_init

    def _parser_builder(self, build):
        tracer = self

        @functools.wraps(build)
        def build_parser(*args, **kwargs):
            parser = build(*args, **kwargs)
            parser.parse_args = tracer._span(parser.parse_args, "cli.parse_args", "cli",
                                             "parse")
            return parser

        return build_parser
