"""Outside-in trace of detsums: spans around calls into each module's public functions.

The tracer rebinds the traced functions in every ``detsums`` module that holds
them (the home module and each ``from .x import name`` binding), so nothing
inside ``src/`` changes.  Spans carry name, start, end, parent and thread; they
are kept in memory and written out once the benchmark ends.  A thread pool in
a traced module is replaced by one whose tasks open a ``<layer>.task`` span
parented to the submitting span, so work done for a caller on another thread
is still attributed to it.

Per-layer metrics are derived from the spans by ``layer_metrics``.  Times are
busy times: summed over threads, so with ``n_jobs=2`` a layer can report more
seconds than the wall clock.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import concurrent.futures
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

# Modules of the package, which are also the layer names.
MODULES = ("linalg", "lattice", "codes", "sums", "bounds", "channel",
           "pipeline", "presets", "cli")

# Home layer -> public functions wrapped in every module that binds them.
TRACED = {
    "lattice": ("coefficient_blocks", "realize_block"),
    "linalg": ("shifted_det_batch", "det_batch", "det_gram_batch"),
    "sums": ("sum_curve", "evaluate_sum", "shifted_det_sum"),
    "codes": ("min_abs_det_ball", "resolve_code"),
    "bounds": ("growth_fit", "shift_bound_envelope", "dmt_ml_bound",
               "dmt_naive_bound", "dmt_envelope", "snr_threshold_exponent"),
    "pipeline": ("run",),
    "channel": ("simulate", "sphere_cvp", "fixed_code", "union_bound"),
}

# Generators whose work happens inside next(): one span per next() call.
GENERATORS = {"lattice.coefficient_blocks"}


def _rows_of(param):
    def attrs(bound, result):
        return {"rows": int(bound[param].shape[0])}
    return attrs


def _family_points(bound, result):
    points = result[1] if isinstance(result, tuple) else result.point_counts[-1]
    return {"family": bound["spec"].family, "points": int(points)}


def _sim_attrs(bound, result):
    cfg = bound["cfg"]
    return {"decoder": cfg.decoder,
            "trials": len(cfg.snr_grid_db) * int(cfg.trials_per_point),
            "overflows": int(sum(result.overflow_count))}


# Span attributes read from a call's arguments and result.
ATTRS = {
    "lattice.realize_block": _rows_of("coeffs"),
    "linalg.shifted_det_batch": _rows_of("Xb"),
    "linalg.det_batch": _rows_of("Mb"),
    "linalg.det_gram_batch": _rows_of("Xb"),
    "sums.sum_curve": _family_points,
    "sums.evaluate_sum": _family_points,
    "channel.simulate": _sim_attrs,
    "pipeline.run": lambda bound, result: {"config": bound["config"].name},
}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs wrappers on a ``detsums`` import and collects spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.walks: dict[int, tuple[int | None, bool]] = {}
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def current(self) -> int | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _open(self, name: str, parent: int | None = None) -> Span:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        span = Span(id=next(self._ids), name=name,
                    parent=self.current() if parent is None else parent,
                    thread=threading.get_ident(), start=time.perf_counter())
        self._local.stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def take(self) -> tuple[list[Span], dict]:
        """Return and clear the spans and walk records collected so far."""
        spans, walks = self.spans, self.walks
        self.spans, self.walks = [], {}
        return spans, walks

    # -- wrappers ---------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        attrs = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if attrs is not None:
                try:
                    span.attrs = attrs(sig.bind(*args, **kwargs).arguments, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    span.attrs = {"attrs": "unavailable"}
            return result
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            walk = next(tracer._ids)
            tracer.walks[walk] = (tracer.current(),
                                  kwargs.get("top_range") is not None)
            inner = fn(*args, **kwargs)
            while True:
                span = tracer._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span)
                span.attrs = {"walk": walk, "rows": int(item[0].shape[0])}
                yield item
        return traced

    def _traced_pool(self, layer: str):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    span = tracer._open(f"{layer}.task", parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer._close(span)
                return super().submit(task, *args, **kwargs)
        return TracedPool

    def install(self, package: str = "detsums") -> None:
        """Rebind every traced function that the installed package still has.

        A function a later version removed or renamed is listed in
        ``absent`` and its metrics read 0.
        """
        self.absent = []
        modules = {}
        for name in MODULES:
            try:
                modules[name] = importlib.import_module(f"{package}.{name}")
            except ImportError:
                self.absent.append(name)
        modules[package] = importlib.import_module(package)
        for layer, names in TRACED.items():
            home = modules.get(layer)
            for fname in names:
                span_name = f"{layer}.{fname}"
                original = getattr(home, fname, None) if home else None
                if original is None:
                    self.absent.append(span_name)
                    continue
                if span_name in GENERATORS:
                    wrapper = self._wrap_generator(span_name, original)
                else:
                    wrapper = self._wrap_call(span_name, original)
                for module in modules.values():
                    if getattr(module, fname, None) is original:
                        self._patch(module, fname, wrapper)
        for name, module in modules.items():
            pool = getattr(module, "ThreadPoolExecutor", None)
            if pool is concurrent.futures.ThreadPoolExecutor:
                self._patch(module, "ThreadPoolExecutor", self._traced_pool(name))

    def _patch(self, module, attr: str, value) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


# -- metrics ------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


def _busy(spans: list[Span], by_id: dict[int, Span]) -> float:
    """Time in the given spans summed over threads, not counting a span
    nested inside another span of the same set twice."""
    ids = {s.id for s in spans}
    total = 0.0
    for s in spans:
        parent = s.parent
        while parent is not None and parent not in ids:
            parent = by_id[parent].parent if parent in by_id else None
        if parent is None:
            total += s.duration
    return total


def _per(numer: float, denom: float, scale: float = 1.0) -> float:
    return numer / denom * scale if denom else 0.0


def _count_walks(walks: dict, by_id: dict[int, Span]) -> int:
    """Ball enumerations: partitions of one call split across threads count once."""
    keys = set()
    for walk, (parent, partitioned) in walks.items():
        if not partitioned:
            keys.add(("call", walk))
            continue
        while parent in by_id and by_id[parent].name.endswith(".task"):
            parent = by_id[parent].parent
        keys.add(("split", parent))
    return len(keys)


def layer_metrics(spans: list[Span], walks: dict, logical_points: int) -> dict:
    """Per-layer numbers of one traced pass, keyed by metric name."""
    by_id = {s.id: s for s in spans}
    named: dict[str, list[Span]] = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def busy(name: str) -> float:
        return _busy(named.get(name, []), by_id)

    def outside(name: str) -> tuple[float, int]:
        """Time and rows of the calls that come from another layer."""
        mine = [s for s in named.get(name, [])
                if s.parent not in by_id or by_id[s.parent].layer != s.layer]
        return sum(s.duration for s in mine), sum(s.attrs.get("rows", 0) for s in mine)

    def layer_self(layer: str) -> float:
        return sum(selfs[s.id] for s in spans if s.layer == layer)

    walk_spans = named.get("lattice.coefficient_blocks", [])
    points = sum(s.attrs.get("rows", 0) for s in walk_spans)
    walk_s = busy("lattice.coefficient_blocks")
    m = {
        "lattice.walk_s": walk_s,
        "lattice.walk_ns_per_pt": _per(walk_s, points, 1e9),
        "lattice.points": points,
        "lattice.blocks": sum("rows" in s.attrs for s in walk_spans),
        "lattice.enumerations": _count_walks(walks, by_id),
        "lattice.reuse_ratio": _per(logical_points, points),
    }
    realize_s, realize_rows = outside("lattice.realize_block")
    m["lattice.realize_s"] = realize_s
    m["lattice.realize_ns_per_pt"] = _per(realize_s, realize_rows, 1e9)
    for fn, key in (("shifted_det_batch", "shifted"), ("det_batch", "det"),
                    ("det_gram_batch", "det_gram")):
        m[f"linalg.{key}_ns_per_pt"] = _per(*outside(f"linalg.{fn}"), 1e9)
    m["sums.self_s"] = layer_self("sums")
    sums_spans = named.get("sums.sum_curve", []) + named.get("sums.evaluate_sum", [])
    for family in ("shifted", "approximate", "mixed"):
        mine = [s for s in sums_spans if s.attrs.get("family") == family]
        m[f"sums.{family}_ns_per_pt"] = _per(
            sum(s.duration for s in mine), sum(s.attrs["points"] for s in mine), 1e9)
    m["codes.det_scan_s"] = busy("codes.min_abs_det_ball")
    m["bounds.s"] = _busy([s for s in spans if s.layer == "bounds"], by_id)
    m["pipeline.self_s"] = layer_self("pipeline")
    sims = named.get("channel.simulate", [])
    for decoder, key in (("ml-exhaustive", "ml"), ("naive-lattice", "naive")):
        mine = [s for s in sims if s.attrs.get("decoder") == decoder]
        m[f"channel.{key}_us_per_trial"] = _per(
            sum(s.duration for s in mine), sum(s.attrs["trials"] for s in mine), 1e6)
    m["channel.sphere_cvp_s"] = busy("channel.sphere_cvp")
    m["channel.sphere_cvp_calls"] = len(named.get("channel.sphere_cvp", []))
    m["channel.code_build_s"] = busy("channel.fixed_code")
    m["channel.union_bound_s"] = busy("channel.union_bound")
    m["channel.overflows"] = sum(s.attrs.get("overflows", 0) for s in sims)
    return m


def walks_by_root(spans: list[Span], walks: dict) -> dict[str, int]:
    """Ball enumerations grouped by the outermost span that caused them."""
    by_id = {s.id: s for s in spans}
    groups: dict[int | None, dict] = {}
    for walk, record in walks.items():
        groups.setdefault(_root(record[0], by_id), {})[walk] = record
    out: dict[str, int] = {}
    for root, mine in groups.items():
        span = by_id.get(root)
        label = "untraced" if span is None else span.name
        if span is not None and "config" in span.attrs:
            label = f"{label}[{span.attrs['config']}]"
        out[label] = out.get(label, 0) + _count_walks(mine, by_id)
    return out


def _root(span_id, by_id):
    while span_id in by_id and by_id[span_id].parent is not None:
        span_id = by_id[span_id].parent
    return span_id


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s)) + "\n")
