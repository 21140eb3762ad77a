"""Span tracing for the benchmark, installed from outside the package.

The tracer replaces selected public functions of armpose with timing
wrappers at every import site (each ``armpose`` module whose namespace holds
the original function object, the defining module included), so calls made
between modules and inside a module are both seen. ``uninstall`` puts the
originals back. Spans stay in memory; ``write_spans`` dumps them at the end.

A span is ``[name, layer, scene_id, parent, start, end, child_time]``.
Self time is ``end - start - child_time``: calls are sequential in one
thread, so the direct children of a span never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import warnings
from collections import Counter

# (layer, module, function) for every wrapped call boundary. The layer is
# the module, except that the private ``_io`` writers belong to ``cli``.
TARGETS = (
    ("kinematics", "kinematics", "forward_kinematics"),
    ("silhouette", "silhouette", "sample_surface"),
    ("silhouette", "silhouette", "sample_link_clouds"),
    ("silhouette", "silhouette", "render_link_clouds"),
    ("silhouette", "silhouette", "render_silhouette"),
    ("silhouette", "silhouette", "render_chain_silhouette"),
    ("silhouette", "silhouette", "silhouette_iou"),
    ("silhouette", "silhouette", "read_pgm"),
    ("silhouette", "silhouette", "write_pgm"),
    ("refine", "refine", "refine"),
    ("distgeo", "distgeo", "train_gim"),
    ("distgeo", "distgeo", "mlp_forward"),
    ("distgeo", "distgeo", "gram_from_edm"),
    ("distgeo", "distgeo", "points_from_gram"),
    ("distgeo", "distgeo", "align_points"),
    ("distgeo", "distgeo", "configuration_from_points"),
    ("poseinit", "poseinit", "epnp"),
    ("poseinit", "poseinit", "initial_estimate"),
    ("datagen", "datagen", "build_scene"),
    ("datagen", "datagen", "write_dataset"),
    ("datagen", "datagen", "read_dataset"),
    ("datagen", "datagen", "load_scene_mask"),
    ("metrics", "metrics", "add_metric"),
    ("metrics", "metrics", "build_report"),
    ("cli", "cli", "_estimate_scene"),
    ("cli", "cli", "_refine_worker"),
    ("cli", "_io", "atomic_write_bytes"),
    ("cli", "_io", "atomic_write_text"),
)

LAYERS = ("kinematics", "silhouette", "refine", "distgeo", "poseinit", "datagen", "metrics", "cli")

# Warnings the CLI silences inside _estimate_scene; counted where they are raised.
_WARNING_COUNTERS = {
    "NonEmbeddableWarning": "distgeo.warnings.nonembeddable",
    "ConfigurationAmbiguousWarning": "distgeo.warnings.ambiguous",
}


def _count_refine(tracer, args, kwargs, out):
    trace = out[1]
    tracer.counters["refine.evals"] += trace[-1]["evaluations"]
    first, final = trace[0]["objective"], trace[-1]["objective"]
    after_one = trace[1]["objective"] if len(trace) > 1 else final
    tracer.counters["refine.drop"] += first - final
    tracer.counters["refine.late_drop"] += after_one - final


def _count_train(tracer, args, kwargs, out):
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[2]
    tracer.counters["train_gim.steps"] += cfg.steps - cfg.start_step


def _payload_scene(args):
    """Index of the Scene inside a CLI per-scene worker payload, if any."""
    for item in args[0]:
        if hasattr(item, "keypoints") and hasattr(item, "index"):
            return item.index
    return None


_POST = {"refine": _count_refine, "train_gim": _count_train}
_CATCH_WARNINGS = {"points_from_gram", "configuration_from_points"}
_SCENE_HOOK = {"_estimate_scene", "_refine_worker"}


class Tracer:
    """Collects spans and counters; one instance per traced run."""

    def __init__(self, workload):
        self.workload = workload
        self.scene = f"{workload}:setup"
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self._patches = []

    # -- spans -----------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, layer, self.scene, parent, time.perf_counter(), 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[5] = time.perf_counter()
        self._stack.pop()
        if rec[3] >= 0:
            self.spans[rec[3]][6] += rec[5] - rec[4]

    @contextlib.contextmanager
    def span(self, name, layer):
        """A span opened by the benchmark itself, around a call it makes."""
        rec = self._open(name, layer)
        try:
            yield
        finally:
            self._close(rec)

    def set_scene(self, index):
        self.scene = f"{self.workload}:{index}"

    # -- patching --------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        post = _POST.get(fn.__name__)
        catch = fn.__name__ in _CATCH_WARNINGS
        scene_hook = fn.__name__ in _SCENE_HOOK

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved_scene = tracer.scene
            if scene_hook:
                index = _payload_scene(args)
                if index is not None:
                    tracer.set_scene(index)
            rec = tracer._open(name, layer)
            try:
                if catch:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = fn(*args, **kwargs)
                else:
                    out = fn(*args, **kwargs)
            finally:
                tracer._close(rec)
                tracer.scene = saved_scene
            if catch:
                for w in caught:
                    key = _WARNING_COUNTERS.get(w.category.__name__)
                    if key:
                        tracer.counters[key] += 1
                    # hand the warning on so the caller's own filters still apply
                    warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if post:
                post(tracer, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "armpose" or n.startswith("armpose.")) and m is not None]
        for layer, modname, fname in TARGETS:
            original = getattr(sys.modules[f"armpose.{modname}"], fname)
            wrapper = self._wrap(layer, f"{modname}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- output ----------------------------------------------------------

    def layers_seen(self):
        return sorted({rec[1] for rec in self.spans})

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, scene, parent, t0, t1, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "scene": scene, "name": name, "layer": layer,
                    "start": t0, "end": t1, "self": t1 - t0 - child,
                }) + "\n")
