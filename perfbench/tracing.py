"""Per-layer spans recorded from outside the library.

`Tracer.install` replaces each layer function at the name its caller
looks it up by (for example `depthscale.pipeline.split_into_components`,
which `rescale` calls through its module globals) with a wrapper that
times the call and counts it; `uninstall` puts the originals back. No
library file changes. Spans nest: a span's self time is its duration
minus the time of the spans it caused, so `regions.expand` excludes the
fits its `need` callback runs.

Spans and counters are kept per frame, in memory, and reduced to the
per-layer metrics when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter
from time import perf_counter_ns

# Span name -> where callers look the function up, as (module, attribute).
# Names ending in "_calls" in the metrics come from the same spans.
_SPANS = {
    "normalize.normalize": [("depthscale.pipeline", "affine_invariant_normalize")],
    "normalize.invert": [("depthscale.cli", "invert_depth")],
    "regions.split": [("depthscale.pipeline", "split_into_components")],
    "regions.graph": [("depthscale.pipeline", "build_region_graph")],
    "fitting.pair": [("depthscale.pipeline", "pair_observations")],
    "fitting.apply": [("depthscale.pipeline", "apply_fit")],
    "grids.canonicalize": [
        ("depthscale.pipeline", "canonicalize_labels"),
        ("depthscale.regions", "canonicalize_labels"),
    ],
    "pipeline.rescale": [("depthscale.pipeline", "rescale"), ("depthscale.cli", "rescale")],
    "io.load_depth": [("depthscale.io", "load_depth")],
    "io.load_mask": [("depthscale.io", "load_mask")],
    "io.load_samples": [("depthscale.io", "load_samples")],
    "io.save": [("depthscale.io", "save_depth"), ("depthscale.io", "save_region_reports")],
    "metrics.evaluate": [("depthscale.cli", "evaluate")],
    "cli": [("depthscale.cli", "main")],
}
_FITS = [("depthscale.pipeline", name) for name in ("fit_affine", "fit_planar", "fit_median_ratio")]
_SYNTH = [
    ("depthscale.synth", name)
    for name in ("random_scene", "generate_scene", "sample_uniform", "sample_beams")
]

# Per-layer metric -> span whose median per-frame self time it reports.
SELF_MS = {
    "normalize.normalize_ms": "normalize.normalize",
    "normalize.invert_ms": "normalize.invert",
    "regions.split_ms": "regions.split",
    "regions.graph_ms": "regions.graph",
    "regions.expand_ms": "regions.expand",
    "fitting.pair_ms": "fitting.pair",
    "fitting.fit_ms": "fitting.fit",
    "fitting.apply_ms": "fitting.apply",
    "grids.canonicalize_ms": "grids.canonicalize",
    "pipeline.self_ms": "pipeline.rescale",
    "io.load_depth_ms": "io.load_depth",
    "io.load_mask_ms": "io.load_mask",
    "io.load_samples_ms": "io.load_samples",
    "io.save_ms": "io.save",
    "metrics.evaluate_ms": "metrics.evaluate",
    "cli.self_ms": "cli",
}
# Per-layer metric -> counter whose mean per frame it reports.
CALLS = {
    "regions.expand_calls": "regions.expand",
    "regions.rings": "regions.ring",
    "fitting.take_calls": "fitting.take",
    "fitting.fit_calls": "fitting.fit",
    "fitting.apply_calls": "fitting.apply",
    "grids.depthgrid_calls": "grids.depthgrid",
}


class Tracer:
    """Span recorder with self time per layer, reset at each frame."""

    def __init__(self):
        self._stack: list[int] = []  # child time (ns) of each open span
        self._undo: list[tuple[object, str, object]] = []
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.frames: list[tuple[Counter, Counter, Counter]] = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._stack.append(0)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self.self_ns[name] += elapsed - self._stack.pop()
                self.incl_ns[name] += elapsed
                if self._stack:
                    self._stack[-1] += elapsed

        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _patch_span(self, name: str, module: str, attr: str) -> None:
        owner = importlib.import_module(module)
        self._patch(owner, attr, self.wrap(name, getattr(owner, attr)))

    # -- installation -------------------------------------------------------

    def install_synth(self) -> None:
        """Time scene generation, for set-up."""
        for module, attr in _SYNTH:
            self._patch_span("synth.scene", module, attr)

    def install(self) -> None:
        """Wrap every pipeline, I/O, metrics and CLI layer."""
        from depthscale.errors import DegeneracyError
        from depthscale.fitting import PairedObservations
        from depthscale.grids import DepthGrid

        for name, sites in _SPANS.items():
            for module, attr in sites:
                self._patch_span(name, module, attr)

        def rejecting(fn):
            def fit(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except DegeneracyError:
                    self.calls["fitting.fit_rejected"] += 1
                    raise

            return fit

        for module, attr in _FITS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self.wrap("fitting.fit", rejecting(getattr(owner, attr))))

        pipeline = importlib.import_module("depthscale.pipeline")
        expand_until = self.wrap("regions.expand", pipeline.expand_until)

        def expand(graph, origin, need, max_hops=None):
            last = [False]

            def counted_need(accumulated):
                self.calls["regions.ring"] += 1
                last[0] = need(accumulated)
                return last[0]

            result = expand_until(graph, origin, counted_need, max_hops)
            self.calls["regions.expand_hit"] += last[0]
            return result

        self._patch(pipeline, "expand_until", expand)
        self._patch(PairedObservations, "take", self.count("fitting.take", PairedObservations.take))
        self._patch(
            DepthGrid, "__post_init__", self.count("grids.depthgrid", DepthGrid.__post_init__)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- frames -------------------------------------------------------------

    def begin_frame(self) -> None:
        self.self_ns, self.incl_ns, self.calls = Counter(), Counter(), Counter()

    def end_frame(self) -> None:
        self.frames.append((self.self_ns, self.incl_ns, self.calls))
        self.begin_frame()

    def take_ms(self, name: str) -> float:
        """Self time of `name` since the last reset, in ms; resets."""
        ms = self.self_ns[name] / 1e6
        self.begin_frame()
        return ms

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over the recorded frames (see SELF_MS and CALLS)."""
        frames = self.frames

        def median_ms(which: int, key: str) -> float:
            return statistics.median(f[which][key] for f in frames) / 1e6

        def total(key: str) -> int:
            return sum(calls[key] for _, _, calls in frames)

        out = {metric: median_ms(0, span) for metric, span in SELF_MS.items()}
        out["pipeline.rescale_ms"] = median_ms(1, "pipeline.rescale")
        out.update({metric: total(key) / len(frames) for metric, key in CALLS.items()})
        expands, fits = total("regions.expand"), total("fitting.fit")
        out["regions.expand_hit_ratio"] = total("regions.expand_hit") / expands if expands else 0.0
        out["fitting.fit_accept_ratio"] = (
            (fits - total("fitting.fit_rejected")) / fits if fits else 0.0
        )
        return out
