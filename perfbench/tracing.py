"""Outside-in tracing of sigmalab: spans and counts recorded by wrappers.

The wrappers are installed around public functions of ``src/sigmalab`` from
this file only and are removed again when the traced run ends; the package
itself is never edited. Each wrapper records a span (name, start, end,
parent span, item id). Calls that happen per point -- coefficient and oracle
evaluators, ``divergence_of_sigma``, ``meyers_jacobian`` -- would make
millions of spans, so they are aggregated per (parent span, name) instead.
Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

_now = time.perf_counter

#: marks an evaluator that already counts, so nested constructors wrap once
_COUNTED = "__perfbench_counted__"


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    item: Optional[int]
    start: float
    end: float


@dataclass
class Group:
    """Aggregated calls of one hot function under one recorded span."""

    parent: Optional[int]
    name: str
    item: Optional[int]
    calls: int = 0
    total: float = 0.0  # summed duration of all calls
    child: float = 0.0  # part of total spent in frames nested inside the calls
    direct: float = 0.0  # duration of the calls made directly under the parent span


class _Frame:
    __slots__ = ("name", "start", "child", "span_id", "parent_span")

    def __init__(self, name, span_id, parent_span):
        self.name = name
        self.child = 0.0
        self.span_id = span_id  # None for an aggregated (hot) frame
        self.parent_span = parent_span  # nearest recorded span around this frame
        self.start = _now()


class Tracer:
    """In-memory span and count store for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.groups: dict[tuple, Group] = {}
        self.counts: Counter = Counter()
        self.item: Optional[int] = None
        self._stack: list[_Frame] = []
        self._next_id = 0
        self._scope: Optional[dict] = None  # per CLI command, see command()
        self._operators: set = set()  # (mesh, sigma) pairs assembled this item
        self._keep: list = []  # holds those objects so their ids stay unique

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, hot: bool = False) -> _Frame:
        stack = self._stack
        if not stack:
            parent_span = None
        else:
            top = stack[-1]
            if top.span_id is None:
                # anything opened inside an aggregated call is aggregated too,
                # so a recorded span never hides inside a group's total
                hot = True
                parent_span = top.parent_span
            else:
                parent_span = top.span_id
        if hot:
            frame = _Frame(name, None, parent_span)
        else:
            frame = _Frame(name, self._next_id, parent_span)
            self._next_id += 1
        stack.append(frame)
        return frame

    def end(self, frame: _Frame) -> None:
        stop = _now()
        stack = self._stack
        if stack.pop() is not frame:
            raise RuntimeError(f"span '{frame.name}' closed out of order")
        dt = stop - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child += dt
        if frame.span_id is not None:
            self.spans.append(
                Span(frame.span_id, frame.name, frame.parent_span, self.item, frame.start, stop)
            )
            return
        key = (frame.parent_span, frame.name)
        group = self.groups.get(key)
        if group is None:
            group = self.groups[key] = Group(key[0], frame.name, self.item)
        group.calls += 1
        group.total += dt
        group.child += frame.child
        if parent is None or parent.span_id is not None:
            group.direct += dt

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield frame
        finally:
            self.end(frame)

    # -- item and command scopes -------------------------------------------

    @contextmanager
    def run_item(self, item: int):
        self.item = item
        try:
            with self.span("item"):
                yield
        finally:
            self.item = None
            self.counts["fem.operators"] += len(self._operators)
            self._operators.clear()
            self._keep.clear()

    @contextmanager
    def command(self, name: str):
        """One CLI call; sample sites count only if the command built a sigma."""
        self._scope = {"sigma": False, "sites": 0}
        points_before = self.counts["coefficients.sigma_points"]
        try:
            with self.span("cli.main"):
                yield
        finally:
            scope, self._scope = self._scope, None
            if scope["sigma"]:
                self.counts["coefficients.sites"] += scope["sites"]
                self.counts[f"sites.{name}"] += scope["sites"]
                self.counts[f"sigma_points.{name}"] += (
                    self.counts["coefficients.sigma_points"] - points_before
                )

    def _add_sites(self, n: int) -> None:
        if self._scope is not None:
            self._scope["sites"] += int(n)

    def _note_sigma(self) -> None:
        if self._scope is not None:
            self._scope["sigma"] = True

    def _note_operator(self, mesh, sigma) -> None:
        self._keep.extend((mesh, sigma))
        self._operators.add((id(mesh), id(sigma)))
        self.counts["fem.assemblies"] += 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "spans": [dataclasses.asdict(s) for s in self.spans],
                "groups": [dataclasses.asdict(g) for g in self.groups.values()],
                "counts": dict(self.counts),
            }
        )


def self_times(spans, groups) -> dict:
    """Self time per span id and per group key.

    A recorded span's self time is its duration minus the union of its
    recorded children's intervals and the aggregated calls made directly
    under it. A group's self time is its total minus what nested inside it.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    direct = defaultdict(float)
    for g in groups:
        if g.parent is not None:
            direct[g.parent] += g.direct
    out = {}
    for s in spans:
        covered = 0.0
        reach = -np.inf
        for a, b in sorted(children.get(s.id, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered - direct[s.id]
    for g in groups:
        out[(g.parent, g.name)] = g.total - g.child
    return out


# ---------------------------------------------------------------------------
# what is wrapped, and which metric each span feeds


@dataclass(frozen=True)
class Hook:
    module: str  # module that defines (or, for a foreign function, binds) the name
    name: str  # attribute; "Class.method" for a method
    metric: Optional[str]  # the self-time metric its span adds to; None: count only
    hot: bool = False  # aggregate calls instead of one span each
    #: (tracer, args, kwargs, result) -> None, or a stand-in for the result
    after: Optional[Callable] = None
    calls: Optional[str] = None  # counter bumped on every call, raising ones too


def _points(x) -> int:
    return 1 if isinstance(x, float) else int(np.size(x))


def _mesh_built(tracer, args, kwargs, mesh):
    tracer.counts["mesh.vertices"] += int(mesh.num_vertices)
    tracer._add_sites(mesh.num_triangles)


def _grid_built(tracer, args, kwargs, grid):
    tracer._add_sites(int(np.count_nonzero(grid.interior_mask)))


def _assembled(tracer, args, kwargs, result):
    mesh = args[0] if args else kwargs["mesh"]
    sigma = args[1] if len(args) > 1 else kwargs["sigma"]
    tracer._note_operator(mesh, sigma)


def _lewy_done(tracer, args, kwargs, report):
    tracer.counts["analysis.probes"] += len(report.probes)


def _rhs_count(b) -> int:
    return 1 if np.ndim(b) < 2 else int(np.shape(b)[1])


def _solve_counter(layer):
    """spsolve: one factorization of A and a solve for every column of b."""

    def after(tracer, args, kwargs, result):
        A = args[0] if args else kwargs["A"]
        tracer.counts[f"{layer}.factorizations"] += 1
        tracer.counts[f"{layer}.unknowns"] += int(A.shape[0])
        tracer.counts[f"{layer}.rhs"] += _rhs_count(args[1] if len(args) > 1 else kwargs["b"])

    return after


class _TracedLU:
    """Stand-in for a SuperLU object: its solves are spans that count columns."""

    def __init__(self, lu, tracer: "Tracer", layer: str):
        self._lu, self._tracer, self._layer = lu, tracer, layer

    def solve(self, rhs, *args, **kwargs):
        with self._tracer.span(f"{self._layer}.lu_solve"):
            x = self._lu.solve(rhs, *args, **kwargs)
        self._tracer.counts[f"{self._layer}.rhs"] += _rhs_count(rhs)
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _factor_counter(layer):
    """splu: one factorization; right-hand sides are counted as it solves."""

    def after(tracer, args, kwargs, lu):
        A = args[0] if args else kwargs["A"]
        tracer.counts[f"{layer}.factorizations"] += 1
        tracer.counts[f"{layer}.unknowns"] += int(A.shape[0])
        return _TracedLU(lu, tracer, layer)

    return after


def _meyers_jacobian_points(tracer, args, kwargs, result):
    p = args[1] if len(args) > 1 else kwargs["p"]
    tracer.counts["oracles.points"] += max(1, _points(p) // 2)


HOOKS = (
    # coefficients: checks; the evaluator itself is wrapped where fields are built
    Hook("sigmalab.coefficients", "ellipticity_report", "coefficients.check_s"),
    Hook("sigmalab.coefficients", "require_elliptic", "coefficients.check_s"),
    Hook("sigmalab.coefficients", "dilatation_bound", "coefficients.check_s"),
    Hook("sigmalab.coefficients", "divergence_of_sigma", "coefficients.check_s", hot=True),
    # fem
    Hook("sigmalab.fem", "assemble_stiffness", "fem.assemble_s", after=_assembled),
    Hook("sigmalab.fem", "spsolve", "fem.factor_solve_s", after=_solve_counter("fem")),
    Hook("sigmalab.fem", "splu", "fem.factor_solve_s", after=_factor_counter("fem")),
    Hook("sigmalab.fem", "relative_l2_error", "fem.l2_error_s"),
    Hook("sigmalab.fem", "field_to_text", "fem.write_s"),
    # fd
    Hook("sigmalab.fd", "solve_nondivergence", "fd.solve_s"),
    Hook("sigmalab.fd", "spsolve", "fd.factor_solve_s", after=_solve_counter("fd")),
    Hook("sigmalab.fd", "splu", "fd.factor_solve_s", after=_factor_counter("fd")),
    Hook("sigmalab.fd", "grid_field_to_text", "fd.write_s"),
    Hook("sigmalab.fd", "annulus_grid", None, after=_grid_built),
    Hook("sigmalab.fd", "rectangle_grid", None, after=_grid_built),
    # mesh
    Hook("sigmalab.mesh", "generate_disk", "mesh.generate_s", after=_mesh_built),
    Hook("sigmalab.mesh", "generate_annulus", "mesh.generate_s", after=_mesh_built),
    Hook("sigmalab.mesh", "generate_rectangle", "mesh.generate_s", after=_mesh_built),
    Hook("sigmalab.mesh", "refine", "mesh.refine_s", after=_mesh_built),
    Hook("sigmalab.mesh", "mesh_to_text", "mesh.write_s"),
    Hook("sigmalab.mesh", "write_mesh", "mesh.write_s"),
    Hook("sigmalab.mesh", "mesh_from_text", "mesh.read_s"),
    Hook("sigmalab.mesh", "read_mesh", "mesh.read_s"),
    Hook("sigmalab.mesh", "Mesh.locate", "mesh.locate_s"),
    # analysis
    Hook("sigmalab.analysis", "lewy_verify", "analysis.lewy_s", after=_lewy_done),
    Hook("sigmalab.analysis", "injectivity_check", "analysis.injectivity_s"),
    Hook("sigmalab.analysis", "pullback_subdomain", "analysis.pullback_s",
         calls="analysis.pullback_calls"),
    Hook("sigmalab.analysis", "stream_function", "analysis.stream_function_s"),
    Hook("sigmalab.analysis", "complex_derivatives", "analysis.beltrami_s"),
    Hook("sigmalab.analysis", "beltrami_residual", "analysis.beltrami_s"),
    # oracles: callables are wrapped where solutions are built
    Hook("sigmalab.oracles", "meyers_jacobian", "oracles.eval_s", hot=True,
         after=_meyers_jacobian_points),
    # svgplots
    Hook("sigmalab.svgplots", "contour_svg", "svgplots.render_s"),
    Hook("sigmalab.svgplots", "quiver_svg", "svgplots.render_s"),
    Hook("sigmalab.svgplots", "heatmap_svg", "svgplots.render_s"),
)

#: constructors whose results carry a per-point callable worth counting
FIELD_BUILDERS = (
    ("sigmalab.coefficients", "field_from_descriptor"),
    ("sigmalab.coefficients", "meyers_sigma"),
)
ORACLE_BUILDERS = (
    ("sigmalab.oracles", "oracle_from_descriptor"),
    ("sigmalab.oracles", "meyers_solution"),
)

#: span name -> metric, for spans not named by a hook
OTHER_SPANS = {
    "item": "cli.self_s",
    "cli.main": "cli.self_s",
    "coefficients.evaluator": "coefficients.eval_s",
    "oracles.value": "oracles.eval_s",
    "oracles.gradient": "oracles.eval_s",
    "fem.lu_solve": "fem.factor_solve_s",
    "fd.lu_solve": "fd.factor_solve_s",
}


def span_metric() -> dict:
    """Span name -> self-time metric, for every span a traced run records."""
    out = dict(OTHER_SPANS)
    for h in HOOKS:
        if h.metric is not None:
            out[_span_name(h)] = h.metric
    return out


def _span_name(h: Hook) -> str:
    return f"{h.module.split('.')[-1]}.{h.name.split('.')[-1]}"


def _wrap(tracer: Tracer, fn, h: Hook):
    name = _span_name(h)

    def wrapper(*args, **kwargs):
        if h.calls is not None:
            tracer.counts[h.calls] += 1
        if h.metric is None:
            result = fn(*args, **kwargs)
        else:
            frame = tracer.begin(name, h.hot)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(frame)
        if h.after is not None:
            stand_in = h.after(tracer, args, kwargs, result)
            if stand_in is not None:
                return stand_in
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _counted(tracer: Tracer, fn, name: str, counter: str):
    """Per-point callable; counts np.size(x) points so array calls count right."""

    def counted(x, y, *rest, **kwargs):
        frame = tracer.begin(name, True)
        try:
            return fn(x, y, *rest, **kwargs)
        finally:
            tracer.end(frame)
            tracer.counts[counter] += _points(x)

    setattr(counted, _COUNTED, True)
    return counted


def _field_builder(tracer: Tracer, fn):
    def build(*args, **kwargs):
        field = fn(*args, **kwargs)
        tracer._note_sigma()
        if getattr(field.evaluator, _COUNTED, False):
            return field  # built by another wrapped constructor; wrap once
        ev = _counted(tracer, field.evaluator, "coefficients.evaluator",
                      "coefficients.sigma_points")
        return dataclasses.replace(field, evaluator=ev)

    build.__wrapped__ = fn
    return build


def _oracle_builder(tracer: Tracer, fn):
    def build(*args, **kwargs):
        sol = fn(*args, **kwargs)
        if getattr(sol.value, _COUNTED, False):
            return sol
        return dataclasses.replace(
            sol,
            value=_counted(tracer, sol.value, "oracles.value", "oracles.points"),
            gradient=_counted(tracer, sol.gradient, "oracles.gradient", "oracles.points"),
        )

    build.__wrapped__ = fn
    return build


def _bindings(module: str, name: str):
    """(owner, attribute, original) for every place the wrapped name is bound.

    A function defined in sigmalab is patched in every sigmalab module that
    imported it (fem.require_elliptic, analysis.require_elliptic, ...). A
    foreign function such as scipy's spsolve is patched only in the module
    the hook names, so fem's and fd's solves stay apart.
    """
    mod = importlib.import_module(module)
    if "." in name:
        cls_name, attr = name.split(".")
        cls = getattr(mod, cls_name)
        return [(cls, attr, cls.__dict__[attr])] if attr in cls.__dict__ else []
    original = getattr(mod, name, None)
    if original is None:
        return []
    if getattr(original, "__module__", None) != module:
        return [(mod, name, original)]
    found = []
    for mod_name, other in sorted(sys.modules.items()):
        if other is None or not (mod_name == "sigmalab" or mod_name.startswith("sigmalab.")):
            continue
        for attr, value in list(vars(other).items()):
            if value is original:
                found.append((other, attr, original))
    return found


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block, then restore."""
    patched = []
    try:
        plans = [(h.module, h.name, lambda fn, h=h: _wrap(tracer, fn, h)) for h in HOOKS]
        plans += [(m, n, lambda fn: _field_builder(tracer, fn)) for m, n in FIELD_BUILDERS]
        plans += [(m, n, lambda fn: _oracle_builder(tracer, fn)) for m, n in ORACLE_BUILDERS]
        for module, name, make in plans:
            for owner, attr, original in _bindings(module, name):
                wrapped = make(original)
                setattr(owner, attr, wrapped)
                patched.append((owner, attr, original))
        yield patched
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)
