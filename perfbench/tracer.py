"""Spans and counters wrapped around the package's entry points.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
each traced entry point in place and ``Tracer.restore`` puts every original
back.  A module-level function is replaced under every name bound to it in
the package and in the benchmark's own modules, so ``cubicspan.span``'s
imported ``zero_points`` is traced as well as ``cubicspan.surface``'s.  A
method is replaced on its class.

Three kinds of wrapper, by how often the entry point runs:

* span: a recorded span (name, start, end, parent, run id) plus a call
  count, for calls that do real work (a table build, a scan, a search);
* timed: the same timing and count but no stored span, for calls made
  hundreds of thousands of times (``group_add``, ``normalize``);
* count: a call count only, for the field operations, which run millions
  of times and cost less than a timer read.  Their time stays in the self
  time of whoever called them; the fields they ran in are noted for the
  field probe.

Self time is kept per module (the part of the span names before the first
dot): a span's duration minus the part of it its child spans cover.
Generator entry points (``zero_points``) are timed per resumption, so the
consumer's work between two yields is not charged to the generator.
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer:
    def __init__(self, run_id: str, client_modules=()):
        self.run_id = run_id
        #: [name, start, end, parent index, busy seconds]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        #: time of the outermost call of each entry point
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()
        self._used_fields: set = set()
        self._stack: list[list] = []  # [span index or None, child seconds, start, name]
        self._depth: Counter = Counter()
        self._cells: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._clients = set(client_modules)

    # -- frames ------------------------------------------------------------

    def _open(self, name: str, record: bool, index=None):
        now = perf_counter()
        if record and index is None:
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self.spans.append([name, now, now, parent, 0.0])
        frame = [index, 0.0, now, name]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def _close(self, frame) -> None:
        now = perf_counter()
        self._stack.pop()
        index, child, start, name = frame
        busy = now - start
        if index is not None:
            span = self.spans[index]
            span[2] = now
            span[4] += busy
        self.self_time[name.split(".", 1)[0]] += busy - child
        if self._stack:
            self._stack[-1][1] += busy
        self._depth[name] -= 1
        if not self._depth[name]:
            self.inclusive[name] += busy

    @contextmanager
    def item(self, key: str):
        """One benchmark item, the root span of everything it calls."""
        frame = self._open(f"bench.{key}", True)
        try:
            yield
        finally:
            self._close(frame)

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, record, after=None):
        tracer = self
        counts = self.counts

        def wrapper(*args, **kwargs):
            frame = tracer._open(name, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _generator(self, name, fn):
        tracer = self

        def drive(gen):
            index = None
            yielded = 0
            try:
                while True:
                    frame = tracer._open(name, True, index)
                    index = frame[0]
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(frame)
                    yielded += 1
                    yield value
            finally:
                gen.close()
                tracer.counts[name + ".calls"] += 1
                tracer.counts[name + ".points"] += yielded

        def wrapper(*args, **kwargs):
            return drive(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _field_op(self, op, fn):
        """Count calls of one field operation and note which fields ran it."""
        cell = self._cells.setdefault(f"field.ops.{op}", [0])
        used = self._used_fields

        def wrapper(field, *args):
            cell[0] += 1
            used.add(field)
            return fn(field, *args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _namespaces(self):
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (
                modname == "cubicspan"
                or modname.startswith("cubicspan.")
                or modname in self._clients
            ):
                yield mod

    def wrap_function(self, module, attr: str, make) -> None:
        original = getattr(module, attr)
        wrapper = make(original)
        for mod in self._namespaces():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        """Wrap every traced entry point of the package."""
        from cubicspan import field, harness, hsgroup, planecubic, projgeo
        from cubicspan import reduction, span, surface

        tracer = self

        def span_of(name, after=None):
            return lambda fn: tracer._timed(name, fn, True, after)

        def timed(name):
            return lambda fn: tracer._timed(name, fn, False)

        for op in ("add", "mul", "inv"):
            self.wrap_method(field.ExtField, op, lambda fn, op=op: tracer._field_op(op, fn))

        self.wrap_function(projgeo, "normalize", timed("projgeo.normalize"))

        self.wrap_function(surface, "is_smooth", span_of("surface.is_smooth"))
        self.wrap_function(
            surface, "zero_points", lambda fn: tracer._generator("surface.zero_points", fn)
        )
        self.wrap_function(
            surface,
            "lines_on_surface",
            span_of("surface.lines_on_surface", _count_lines),
        )
        self.wrap_function(surface, "classify_point", span_of("surface.classify_point"))
        self.wrap_function(surface, "eckardt_points", span_of("surface.eckardt_points"))

        self.wrap_method(span.SpanTable, "__init__", span_of("span.table_build", _count_table))
        self.wrap_method(span.SpanTable, "closure", span_of("span.closure", _count_closure))
        for name in ("span_closure", "verify_skew_singleton_span", "verify_span_lemmas",
                     "minimal_generators", "find_skew_pair"):
            self.wrap_function(span, name, span_of(f"span.{name}"))

        self.wrap_method(
            hsgroup.ZPresentation, "__init__", span_of("hsgroup.presentation", _count_presentation)
        )
        self.wrap_function(hsgroup, "hs_structure", span_of("hsgroup.hs_structure"))
        self.wrap_function(hsgroup, "ternary_bound_check", span_of("hsgroup.ternary_bound"))

        self.wrap_function(planecubic, "pic_mod", span_of("planecubic.pic_mod"))
        self.wrap_function(planecubic, "two_division_check", span_of("planecubic.two_division_check"))
        self.wrap_function(planecubic, "group_add", timed("planecubic.group_add"))
        self.wrap_function(planecubic, "curve_point", timed("planecubic.curve_point"))

        self.wrap_function(reduction, "point_search", span_of("reduction.point_search", _count_search))
        self.wrap_function(reduction, "reduction_coverage", span_of("reduction.coverage"))
        self.wrap_function(reduction, "rank_lower_bound", span_of("reduction.rank_bound"))
        self.wrap_function(reduction, "verify_line_relation", span_of("reduction.line_relation"))
        self.wrap_function(reduction, "good_parametrization", timed("reduction.good_parametrization"))
        self.wrap_function(reduction, "reduce_to_curve", timed("reduction.reduce_to_curve"))

        self.wrap_function(harness, "random_smooth_surface", span_of("harness.sampler"))
        self.wrap_function(harness, "random_cubic_form", timed("harness.random_cubic_form"))

    @property
    def fields(self) -> set[tuple[int, int]]:
        """(p, k) of every field that did arithmetic while traced."""
        return {(f.p, f.k) for f in self._used_fields}

    def restore(self) -> None:
        """Put every wrapped name back and check that it is back."""
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        for namespace, attr, original in self._patches:
            if vars(namespace).get(attr) is not original:
                raise RuntimeError(f"{namespace!r}.{attr} was not restored")
        self._patches.clear()
        for name, cell in self._cells.items():
            self.counts[name] += cell[0]
            cell[0] = 0

    def span_records(self) -> list[dict]:
        return [
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run_id": self.run_id,
                "busy": busy,
            }
            for name, start, end, parent, busy in self.spans
        ]


def _count_lines(counts, args, result):
    counts["surface.lines.found"] += len(result)


def _count_table(counts, args, result):
    table = args[0]
    n = len(table.points)
    counts["span.points"] += n
    counts["span.pairs"] += n * (n - 1) // 2
    counts["span.contained_secants"] += (table.pair_third.count(-1) - n) // 2
    counts["span.tangent_entries"] += sum(len(t) for t in table.tangent_thirds)


def _count_closure(counts, args, result):
    _, order, rounds, lines = result
    counts["span.closure.lines_examined"] += lines
    counts["span.closure.added"] += len(order) - rounds[0]


def _count_presentation(counts, args, result):
    presentation = args[0]
    counts["hsgroup.sums"] += len(presentation.sums)
    counts["hsgroup.classes"] += len(presentation.class_reps)
    counts["hsgroup.relation_rank"] += len(presentation.reduced)


def _count_search(counts, args, result):
    counts["reduction.points"] += len(result)
    counts["reduction.on_contained_line"] += sum(
        1 for pt in result if pt.coords[0] + pt.coords[1] == 0 and pt.coords[2] == 0
    )


def field_probe(fields, limit: int = 1 << 16) -> tuple[float, float]:
    """Nanoseconds per add and per mul, over all q^2 pairs of each field.

    A field with more than ``limit`` pairs is probed on ``limit`` pairs
    drawn with a fixed seed.  Returns (0.0, 0.0) when no field was used.
    """
    from cubicspan.field import make_extension

    add_s = mul_s = 0.0
    total = 0
    for p, k in sorted(fields):
        f = make_extension(p, k)
        q = f.q
        if q * q <= limit:
            pairs = [(a, b) for a in range(q) for b in range(q)]
        else:
            rng = random.Random(q)
            pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(limit)]
        add, mul = f.add, f.mul
        mul(1, 1)  # build lazy tables outside the timed loop
        start = perf_counter()
        for a, b in pairs:
            add(a, b)
        add_s += perf_counter() - start
        start = perf_counter()
        for a, b in pairs:
            mul(a, b)
        mul_s += perf_counter() - start
        total += len(pairs)
    if not total:
        return 0.0, 0.0
    return add_s / total * 1e9, mul_s / total * 1e9
