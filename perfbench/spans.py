"""Span tracing around the robustpca layers, installed from outside the package.

A :class:`Tracer` rebinds every public function of the six layer modules
(``linalg``, ``solvers``, ``analysis``, ``datagen``, ``dataio``, ``cli``)
to a wrapper that records one span per call: name, start, end, parent.
Names are rebound wherever they are bound -- in the defining module, in
every sibling module that imported them, and in the package namespace --
because ``from .linalg import soft_threshold`` copies the reference.
:meth:`Tracer.remove` puts the originals back.  Spans stay in memory until
:meth:`Tracer.write_jsonl` is called at the end of a run.
"""

import contextlib
import functools
import importlib
import inspect
import json
import os
import time

LAYERS = ("linalg", "solvers", "analysis", "datagen", "dataio", "cli")

SOLVE_NAMES = ("solvers.solve_fffp", "solvers.solve_uffp", "solvers.solve_ialm")
READ_NAMES = ("dataio.read_matrix", "dataio.read_pgm", "dataio.load_frame_stack")
WRITE_NAMES = ("dataio.write_matrix", "dataio.write_pgm", "dataio.write_frame",
               "dataio.write_report")
# position of the file-path argument of every dataio function that touches a file
PATH_ARG = {"read_matrix": 0, "read_pgm": 0, "load_frame_stack": 0, "write_matrix": 0,
            "write_pgm": 0, "write_report": 0, "write_frame": 3}

_MARK = "__perfbench_traced__"


class TraceError(RuntimeError):
    """The span tree is inconsistent, or a wrapper is installed where none may be."""


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, name):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


def _solve_attrs(args, kwargs, result):
    x = args[0] if args else kwargs["x"]
    d, n = x.shape
    report = result[2]
    return {"d": d, "n": n, "iterations": report.iterations, "svd_count": report.svd_count}


def _sweep_attrs(args, kwargs, result):
    entries, selected = result
    return {"selected_iterations": entries[selected].report.iterations}


def _path_attrs(position, name):
    def capture(args, kwargs, result):
        path = args[position] if len(args) > position else kwargs[name]
        return {"path": os.fspath(path)}
    return capture


def _capture_for(qualname, fn):
    if qualname in SOLVE_NAMES:
        return _solve_attrs
    if qualname == "solvers.lambda_sweep":
        return _sweep_attrs
    layer, short = qualname.split(".", 1)
    if layer == "dataio" and short in PATH_ARG:
        position = PATH_ARG[short]
        return _path_attrs(position, list(inspect.signature(fn).parameters)[position])
    return None


def public_functions(module):
    """Functions defined in ``module`` that its public surface exposes."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [name for name in vars(module) if not name.startswith("_")]
    return {
        name: getattr(module, name)
        for name in names
        if inspect.isfunction(getattr(module, name))
        and getattr(module, name).__module__ == module.__name__
    }


def _modules(package):
    return [package] + [importlib.import_module("%s.%s" % (package.__name__, layer))
                        for layer in LAYERS]


def assert_clean(package):
    """Raise :class:`TraceError` if any traced wrapper is bound in the package."""
    for module in _modules(package):
        for attr, value in vars(module).items():
            if getattr(value, _MARK, False):
                raise TraceError("wrapper still installed at %s.%s" % (module.__name__, attr))


class Tracer:
    """Records spans around every call into the package's layer functions."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self._stack = []
        self._next_id = 0
        self._patched = []
        self._origin = time.perf_counter()
        self._wrappers = {}
        for layer, module in zip(LAYERS, _modules(package)[1:]):
            for short, fn in public_functions(module).items():
                qualname = "%s.%s" % (layer, short)
                self._wrappers[id(fn)] = (fn, self._wrap(qualname, fn,
                                                         _capture_for(qualname, fn)))

    def _open(self, name):
        span = Span(self._next_id, self._stack[-1].id if self._stack else None, name)
        self._next_id += 1
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, qualname, fn, capture):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(qualname)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if capture is not None:
                span.attrs = capture(args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span opened by the benchmark itself around the block."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def install(self):
        if self._patched:
            raise TraceError("tracer is already installed")
        for module in _modules(self.package):
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))

    def remove(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                record = {"id": span.id, "parent": span.parent, "name": span.name,
                          "start": span.start - self._origin,
                          "end": span.end - self._origin}
                if span.attrs:
                    record.update(span.attrs)
                fh.write(json.dumps(record) + "\n")


def subtree(spans, root):
    """Spans below ``root`` (itself included), with a child map and self times.

    Checks that every child lies inside its parent and that siblings do not
    overlap, then that the self times of the tree add up to the root's
    duration; raises :class:`TraceError` otherwise.
    """
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    members, self_time, todo = [], {}, [root]
    while todo:
        span = todo.pop()
        members.append(span)
        kids = sorted(children.get(span.id, []), key=lambda s: s.start)
        covered, last_end = 0.0, span.start
        for kid in kids:
            if kid.start < last_end or kid.end > span.end:
                raise TraceError("span %s escapes or overlaps within %s" % (kid.name, span.name))
            covered += kid.duration
            last_end = kid.end
        self_time[span.id] = span.duration - covered
        todo.extend(kids)
    total = sum(self_time.values())
    if abs(total - root.duration) > 1e-9 * max(1.0, root.duration):
        raise TraceError("self times add up to %.9f s, span %s lasted %.9f s"
                         % (total, root.name, root.duration))
    return members, children, self_time


def _outermost(members, by_id, names):
    """Spans named in ``names`` that have no ancestor also named in ``names``."""
    found = []
    for span in members:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            found.append(span)
    return found


def _file_bytes(spans):
    return sum(os.path.getsize(span.attrs["path"]) for span in spans if span.attrs)


def op_layer_metrics(spans, root):
    """Per-layer metrics of one traced operation rooted at ``root``.

    ``<layer>.<function>.s`` is the inclusive time of the outermost calls
    to that function; ``self_s`` names are self times (span time minus
    the time its child spans cover).  Byte counts stat the files the
    dataio spans named, so call this while the operation's outputs exist.
    """
    members, children, self_time = subtree(spans, root)
    by_id = {span.id: span for span in members}

    def named(*names):
        return [span for span in members if span.name in names]

    def inclusive(*names):
        return sum(span.duration for span in _outermost(members, by_id, names))

    # attrs stay None on a call that raised
    solves = [span for span in named(*SOLVE_NAMES) if span.attrs]
    loop_self = sum(self_time[span.id] for span in solves)
    entry_iters = sum(s.attrs["d"] * s.attrs["n"] * s.attrs["iterations"] for s in solves)
    sweeps = [span for span in named("solvers.lambda_sweep") if span.attrs]
    sweep_solves = [kid for sweep in sweeps for kid in children.get(sweep.id, [])
                    if kid.name in SOLVE_NAMES and kid.attrs]
    sweep_iters = sum(s.attrs["iterations"] for s in sweep_solves)
    useful = sum(s.attrs["selected_iterations"] for s in sweeps)
    reads = _outermost(members, by_id, READ_NAMES)
    writes = _outermost(members, by_id, WRITE_NAMES)
    leaf_reads = named("dataio.read_matrix", "dataio.read_pgm")
    return {
        "trace.op_s": root.duration,
        "solvers.loop_self_s": loop_self,
        "solvers.ns_per_entry_iter": 1e9 * loop_self / entry_iters if entry_iters else 0.0,
        "solvers.init_factors.s": inclusive("solvers.init_factors"),
        "solvers.default_lambda_grid.s": inclusive("solvers.default_lambda_grid"),
        "solvers.sweep.solves": len(sweep_solves),
        "solvers.sweep.useful_iter_ratio": useful / sweep_iters if sweep_iters else 1.0,
        "solvers.svd_count": sum(s.attrs["svd_count"] for s in solves),
        "linalg.soft_threshold.calls": len(named("linalg.soft_threshold")),
        "linalg.soft_threshold.s": inclusive("linalg.soft_threshold"),
        "linalg.thin_svd.calls": len(named("linalg.thin_svd")),
        "linalg.thin_svd.s": inclusive("linalg.thin_svd"),
        "linalg.polar_orthogonal.s": inclusive("linalg.polar_orthogonal"),
        "linalg.ld_shrink.s": inclusive("linalg.ld_shrink"),
        "linalg.svt.s": inclusive("linalg.svt"),
        "analysis.compute_metrics.s": inclusive("analysis.compute_metrics"),
        "dataio.read.s": sum(span.duration for span in reads),
        "dataio.read.bytes": _file_bytes(leaf_reads),
        "dataio.write.calls": len(writes),
        "dataio.write.s": sum(span.duration for span in writes),
        "dataio.write.bytes": _file_bytes(writes),
        "cli.self_s": sum(self_time[s.id] for s in members if s.name.startswith("cli.")),
    }


def setup_layer_metrics(spans, root):
    """Per-layer metrics of the traced set-up rooted at ``root``."""
    members, _, _ = subtree(spans, root)
    by_id = {span.id: span for span in members}
    make = _outermost(members, by_id, ("datagen.make_problem",))
    return {"datagen.make_problem.s": sum(span.duration for span in make)}
