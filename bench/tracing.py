"""Spans around the calls into each besselint layer, installed from outside.

The library has no tracing of its own, so :class:`Tracer` replaces each
public entry point at the name its caller looks it up by, and restores the
originals afterwards:

* ``verifier`` imports ``bound_value``, ``bessel_integral`` and
  ``cumulative_bessel_integral`` by name, so those are wrapped on
  ``verifier``;
* ``bounds`` imports ``bessel_integral`` by name (``m_value`` uses it);
* ``cli`` imports ``sweep`` and ``relative_error_table`` by name;
* ``bounds`` and ``oracle`` reach ``besseli`` through ``kernel.besseli``,
  and ``besseli`` reaches ``besselk`` through the ``kernel`` module globals;
* the benchmark itself calls ``cli.run``, ``verifier.sweep``,
  ``verifier.check_point``, ``oracle.bessel_integral`` and
  ``bounds.m_value`` through their modules, so those are wrapped there.

Spans of the ``cli``, ``verifier``, ``bounds`` and ``oracle`` layers are
kept in memory, each with the index of its parent span.  ``kernel`` calls
are leaves (apart from ``besselk`` inside the reflection branch of
``besseli``) and there are hundreds of thousands of them, so each one is
folded into per-function and per-branch totals and into its parent's child
time as it ends.  ``ScaledValue.__add__`` and ``ScaledValue.from_log`` are
only counted: timing millions of sub-microsecond calls would cost more than
the work they do.  A layer's self time is the time in its spans minus the
time in their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from besselint import bounds, cli, kernel, oracle, verifier
from besselint.scaled import ScaledValue

#: layers whose spans are recorded, outermost first
SPAN_LAYERS = ("cli", "verifier", "bounds", "oracle")

#: the branch rule of the kernel docstring: ascending series up to this x
#: (or up to twice the order), the large-argument expansion above it for
#: orders >= -1/2, and the reflection formula below -1/2
SERIES_SWITCH = 18.5

# a span record: [child_s, name, layer, parent, start, end, own index]
_CHILD, _NAME, _LAYER, _PARENT, _START, _END, _INDEX = range(7)


def besseli_branch(order: float, x: float) -> str:
    if x <= max(SERIES_SWITCH, 2.0 * abs(order)):
        return "series"
    return "large" if order >= -0.5 else "reflect"


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []
        self._scaled = {"add": [0], "from_log": [0]}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        # start from empty caches, so cache_info() counts only traced calls
        kernel.besseli.cache_clear()
        kernel.besselk.cache_clear()
        span = self._wrap_span
        span(cli, "run", "cli")
        span(cli, "sweep", "verifier", on_result=self._on_sweep)
        span(cli, "relative_error_table", "verifier")
        span(verifier, "sweep", "verifier", on_result=self._on_sweep)
        span(verifier, "check_point", "verifier", on_result=self._on_check)
        span(verifier, "bound_value", "bounds", on_result=self._on_bound,
             name_of=lambda args: f"bound_value.{args[0].value}")
        span(verifier, "bessel_integral", "oracle", on_result=self._on_integral)
        span(verifier, "cumulative_bessel_integral", "oracle", on_result=self._on_row)
        span(bounds, "bessel_integral", "oracle", on_result=self._on_integral)
        span(bounds, "m_value", "bounds")
        span(oracle, "bessel_integral", "oracle", on_result=self._on_integral)
        self._wrap_kernel("besseli", classify=True)
        self._wrap_kernel("besselk", classify=False)
        self._count_scaled("__add__", "add", staticmethod_=False)
        self._count_scaled("from_log", "from_log", staticmethod_=True)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, new) -> None:
        # the raw class attribute keeps a staticmethod a staticmethod on undo
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, new)

    def _wrap_span(self, module, attr: str, layer: str, on_result=None, name_of=None) -> None:
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        default_name = f"{layer}.{attr}"

        def wrapper(*args, **kwargs):
            parent = stack[-1][_INDEX] if stack else None
            name = name_of(args) if name_of else default_name
            rec = [0.0, name, layer, parent, 0.0, 0.0, len(spans)]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[_END] = end = clock()
                stack.pop()
                if stack:
                    stack[-1][_CHILD] += end - rec[_START]
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        self._replace(module, attr, wrapper)

    def _wrap_kernel(self, attr: str, classify: bool) -> None:
        fn = getattr(kernel, attr)
        stack, clock, counts = self._stack, time.perf_counter, self.counts
        calls_key, s_key = f"kernel.{attr}.calls", f"kernel.{attr}.s"

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if stack:
                    stack[-1][_CHILD] += dt
                counts[calls_key] += 1
                counts[s_key] += dt
                counts["kernel.self_s"] += dt - frame[0]
                if classify:
                    branch = besseli_branch(args[0], args[1])
                    counts[f"kernel.besseli.{branch}.calls"] += 1
                    counts[f"kernel.besseli.{branch}.s"] += dt

        def cache_clear():
            # cache_clear() also zeroes the statistics: bank them first
            self._bank_cache(attr, fn.cache_info())
            fn.cache_clear()

        wrapper.__wrapped__ = fn
        wrapper.cache_clear = cache_clear
        wrapper.cache_info = fn.cache_info
        self._replace(kernel, attr, wrapper)

    def _bank_cache(self, attr: str, info) -> None:
        c = self.counts
        c[f"kernel.{attr}.hits"] += info.hits
        c[f"kernel.{attr}.misses"] += info.misses
        c[f"kernel.{attr}.peak_entries"] = max(c[f"kernel.{attr}.peak_entries"], info.currsize)

    def _count_scaled(self, attr: str, key: str, staticmethod_: bool) -> None:
        raw = ScaledValue.__dict__[attr]
        fn = raw.__func__ if staticmethod_ else raw
        cell = self._scaled[key]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        self._replace(ScaledValue, attr, staticmethod(counted) if staticmethod_ else counted)

    # -- counts taken from results --------------------------------------------

    def _on_sweep(self, result) -> None:
        c = self.counts
        c["verifier.checks"] += len(result.reports)
        c["verifier.skipped"] += len(result.skipped)
        for verdict, n in result.counts.items():
            c[f"verifier.{verdict}"] += n

    def _on_check(self, report) -> None:
        self.counts["verifier.checks"] += 1
        self.counts[f"verifier.{report.verdict.value}"] += 1

    def _on_bound(self, ev) -> None:
        self.counts["bounds.evals"] += 1
        self.counts["bounds.series_terms"] += ev.truncation_terms

    def _on_integral(self, res) -> None:
        self.counts["oracle.points"] += 1
        self.counts["oracle.panels"] += res.segments

    def _on_row(self, results) -> None:
        self.counts["oracle.rows"] += 1
        self.counts["oracle.points"] += len(results)
        if results:  # segments count cumulatively along a row
            self.counts["oracle.panels"] += results[-1].segments

    # -- derived metrics ------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, inclusive times and self times of everything traced."""
        m: dict[str, float] = defaultdict(float)
        m.update(self.counts)
        m["scaled.add.calls"] = self._scaled["add"][0]
        m["scaled.from_log.calls"] = self._scaled["from_log"][0]
        layer_of = [rec[_LAYER] for rec in self.spans]
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            layer = rec[_LAYER]
            m[f"{layer}.self_s"] += dur - rec[_CHILD]
            parent = rec[_PARENT]
            if parent is None or layer_of[parent] != layer:
                m[f"{layer}.s"] += dur  # outermost span of its layer
            if rec[_NAME].startswith("bound_value."):
                m[f"bounds.{rec[_NAME][len('bound_value.'):]}.s"] += dur
        m["cli.emit_s"] = m["cli.self_s"]
        for attr in ("besseli", "besselk"):
            self._bank_cache(attr, getattr(kernel, attr).cache_info())
        for key in ("kernel.besseli.hits", "kernel.besseli.misses"):
            m[key] = self.counts[key]
        # the most entries the two caches held, each at its fullest
        m["kernel.cache_entries"] = (self.counts["kernel.besseli.peak_entries"]
                                     + self.counts["kernel.besselk.peak_entries"])
        m["trace.self_s"] = sum(m[f"{layer}.self_s"] for layer in SPAN_LAYERS) + m["kernel.self_s"]
        return m

    def write_spans(self, path) -> None:
        """Write the recorded spans, each with its parent index, as JSON."""
        doc = {
            "fields": ["name", "layer", "parent", "start_s", "end_s"],
            "spans": [[r[_NAME], r[_LAYER], r[_PARENT], r[_START], r[_END]] for r in self.spans],
            "kernel_totals": {k: v for k, v in sorted(self.counts.items())
                              if k.startswith("kernel.")},
        }
        with open(path, "w") as f:
            json.dump(doc, f)
