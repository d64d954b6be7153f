"""Span tracing for the traced benchmark run.

``Tracer.install`` wraps every public function of the five cvqkd modules
(plus ``CovarianceMatrix.__post_init__`` and ``MeasurementRecord.write_csv``)
and rebinds each wrapper wherever the original is bound in a ``cvqkd``
namespace, so names re-exported by ``from .x import`` are traced too.
Untraced runs never call ``install``.

Spans live in per-thread arrays while a pass runs; ``Tracer.drain`` folds
them into per-group counts and self times after the pass clock stops. A
span's self time is its duration minus the union of its children's
intervals. A span opened on a pool thread with nothing open on that thread
is a child of the innermost span open on the installing thread (for
``security_region`` that is the region span).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

import numpy as np

MODULES = ("gaussian", "bounds", "security", "montecarlo", "cli")
METHODS = (("gaussian", "CovarianceMatrix", "__post_init__"), ("montecarlo", "MeasurementRecord", "write_csv"))

# Layer groups. Every public cli function is the CLI layer, "cli.main"; any
# other public function not listed here falls in "<module>.other".
GROUPS = {
    "gaussian.CovarianceMatrix.__post_init__": "gaussian.cm_init",
    "gaussian.symplectic_eigenvalues": "gaussian.spectrum",
    "gaussian.vacuum": "gaussian.transform",
    "gaussian.thermal": "gaussian.transform",
    "gaussian.tmsv": "gaussian.transform",
    "gaussian.apply_channel": "gaussian.transform",
    "gaussian.split_with_vacuum": "gaussian.transform",
    "gaussian.reduced_state": "gaussian.transform",
    "gaussian.symplectic_form": "gaussian.transform",
    "gaussian.condition_on_homodyne": "gaussian.condition",
    "gaussian.conditional_variance": "gaussian.condition",
    "gaussian.von_neumann_entropy": "gaussian.entropy",
    "gaussian.entropy_g": "gaussian.entropy",
    "bounds.verify_ur_bipartite": "bounds.ur",
    "bounds.verify_ur_tripartite": "bounds.ur",
    "bounds.measured_conditional_vn_entropy": "bounds.ur",
    "bounds.gaussian_shannon_entropy": "bounds.ur",
    "bounds.devetak_winter_oracle": "bounds.dw",
    "bounds.key_rate": "bounds.key_rate",
    "bounds.expected_kinds": "bounds.key_rate",
    "bounds.classify_1sdi": "bounds.key_rate",
    "bounds.infer_full_mode_variance": "bounds.key_rate",
    "bounds.steering_parameter": "bounds.key_rate",
    "security.key_rate_at": "security.key_rate_at",
    "security.build_protocol_state": "security.protocol_state",
    "security.protocol_cond_variances": "security.protocol_state",
    "security.threshold_transmission": "security.solve",
    "security.max_excess_noise": "security.solve",
    "security.optimize_modulation": "security.solve",
    "security.max_distance": "security.solve",
    "security.security_region": "security.region",
    "montecarlo.sample_quadratures": "montecarlo.sample",
    "montecarlo.estimate_conditional_variance": "montecarlo.estimate",
    "montecarlo.empirical_entropy": "montecarlo.estimate",
    "montecarlo.MeasurementRecord.write_csv": "montecarlo.export",
}
# root finders whose key_rate_at children count as solver evaluations
SOLVES = ("security.threshold_transmission", "security.max_excess_noise")


def _group(name: str) -> str:
    module = name.split(".")[0]
    return GROUPS.get(name, "cli.main" if module == "cli" else module + ".other")


def _spectrum_modes(args, kwargs):
    cm = args[0] if args else kwargs["cm"]
    return cm.n_modes


def _sample_rows(args, kwargs):
    return args[3] if len(args) > 3 else kwargs["n"]


# per-span integer attribute recorded at entry
ATTRS = {
    "gaussian.symplectic_eigenvalues": _spectrum_modes,
    "montecarlo.sample_quadratures": _sample_rows,
}


class _Buffer:
    """Spans opened on one thread, in entry order."""

    def __init__(self, slot: int, thread: threading.Thread):
        self.slot = slot
        self.thread = thread
        self.stack: list[int] = []
        self.reset()

    def reset(self):
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("q")  # (slot << 32 | index) of the parent, or -1
        self.attr = array("q")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[_Buffer] = []
        self._next_slot = 0
        self._main: _Buffer | None = None
        self._restore: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.totals: dict[str, float] = {}
        self.passes = 0
        self.spans = 0
        self.min_self_s = 0.0
        # largest share of a pass's wall time covered by the self time of one thread
        self.max_thread_self_share = 0.0

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buf
        except AttributeError:
            with self._lock:
                buf = _Buffer(self._next_slot, threading.current_thread())
                self._next_slot += 1
                self._buffers.append(buf)
            self._local.buf = buf
            return buf

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        attr_of = ATTRS.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                main_stack = tracer._main.stack
                parent = main_stack[-1] if main_stack and buf is not tracer._main else -1
            idx = len(buf.start)
            stack.append((buf.slot << 32) | idx)
            buf.name.append(name_id)
            buf.parent.append(parent)
            buf.attr.append(attr_of(args, kwargs) if attr_of else 0)
            buf.end.append(0.0)
            buf.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap the public functions and rebind them in every cvqkd namespace."""
        self._main = self._buffer()
        originals = {}
        for mod_name in MODULES:
            mod = sys.modules[f"cvqkd.{mod_name}"]
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    originals[id(obj)] = (obj, self._wrap(obj, f"{mod_name}.{attr}"))
        namespaces = [m for n, m in sys.modules.items() if n == "cvqkd" or n.startswith("cvqkd.")]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._restore.append((ns, attr, obj))
                    setattr(ns, attr, originals[id(obj)][1])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"cvqkd.{mod_name}"], cls_name)
            fn = cls.__dict__[meth]
            self._restore.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, f"{mod_name}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- folding -----------------------------------------------------------

    def drain(self, pass_wall_s: float) -> None:
        """Fold the spans of one finished pass into the totals and drop them."""
        with self._lock:
            buffers = [b for b in self._buffers if b.start]
            self._buffers = [b for b in self._buffers if b is self._main or b.thread.is_alive()]
        offsets, parts, pos = {}, [], 0
        for b in buffers:
            if b.stack:
                raise RuntimeError("span still open at the end of a pass")
            offsets[b.slot] = pos
            n = len(b.start)
            parts.append((b, n))
            pos += n

        def column(field, dtype):
            return np.concatenate([np.empty(0, dtype)] + [np.frombuffer(getattr(b, field), dtype=dtype) for b, _ in parts])

        start = column("start", float)
        end = column("end", float)
        name = column("name", np.int_)
        parent = column("parent", np.int64)
        attr = column("attr", np.int64)
        slot = np.concatenate([np.empty(0, np.int64)] + [np.full(n, b.slot, dtype=np.int64) for b, n in parts])
        for b in buffers:
            b.reset()

        p_row = np.full(len(start), -1, dtype=np.int64)
        p_slot = np.where(parent >= 0, parent >> 32, -1)
        for s, off in offsets.items():
            sel = p_slot == s
            p_row[sel] = off + (parent[sel] & 0xFFFFFFFF)
        has_parent = p_row >= 0
        dur = end - start
        # children on the parent's own thread run one after another
        cover = np.zeros(len(start))
        same = has_parent & (p_slot == slot)
        np.add.at(cover, p_row[same], dur[same])
        # children on other threads overlap: cover the union of their intervals
        for p in np.unique(p_row[has_parent & (p_slot != slot)]):
            kids = np.flatnonzero(p_row == p)
            covered, reach = 0.0, start[p]
            for a, b in sorted(zip(start[kids], np.minimum(end[kids], end[p]))):
                if b > reach:
                    covered += b - max(a, reach)
                    reach = b
            cover[p] = covered
        self_s = dur - cover

        group_names = sorted({_group(n) for n in self.names})
        group_of = np.array([group_names.index(_group(n)) for n in self.names], dtype=np.int64)
        groups = group_of[name]
        counts = np.bincount(groups, minlength=len(group_names))
        selfs = np.bincount(groups, weights=self_s, minlength=len(group_names))
        for g, c, t in zip(group_names, counts, selfs):
            self._add(f"{g}.count", c)
            self._add(f"{g}.self_s", t)

        def is_fn(*fns):
            return np.isin(name, [self.names.index(f) for f in fns])

        self._add("bounds.key_rate.calls", is_fn("bounds.key_rate").sum())
        spectrum = is_fn("gaussian.symplectic_eigenvalues")
        self._add("gaussian.spectrum.count_gt2", (spectrum & (attr > 2)).sum())
        self._add("montecarlo.sample.rows", attr[is_fn("montecarlo.sample_quadratures")].sum())
        region = np.flatnonzero(is_fn("security.security_region"))
        self._add("security.region.wall_s", dur[region].sum())
        self._add("security.region.child_s", dur[np.isin(p_row, region)].sum())
        solves = np.flatnonzero(is_fn(*SOLVES))
        self._add("security.root_finder.count", len(solves))
        self._add("security.root_finder.evals", (is_fn("security.key_rate_at") & np.isin(p_row, solves)).sum())
        self.passes += 1
        self.spans += len(start)
        if len(start):
            self.min_self_s = min(self.min_self_s, float(self_s.min()))
            per_thread = np.bincount(slot - slot.min(), weights=self_s)
            self.max_thread_self_share = max(self.max_thread_self_share, float(per_thread.max()) / pass_wall_s)

    def _add(self, key: str, value) -> None:
        self.totals[key] = self.totals.get(key, 0.0) + float(value)

    def per_pass(self, key: str) -> float:
        return self.totals.get(key, 0.0) / self.passes if self.passes else 0.0
