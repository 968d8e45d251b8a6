"""Spans around charval's layer entry points, installed from outside.

The tracer patches module-level functions and class attributes of the
library for the duration of one traced pass and restores them after;
no file of the library changes.  Two kinds of boundary exist:

* coarse boundaries (enumeration, classes, table, self-verify, report,
  flags, checkers, ...) record one span each: name, start, end, parent
  span and the item it served;
* fine boundaries (``Cyc`` arithmetic, display and parse) run hundreds
  of thousands of times per table, so they are aggregated into their
  enclosing span as ``{name: [calls, seconds]}`` instead of being stored
  one by one.  This keeps a traced pass within a few megabytes.

Self time of a span is its duration minus the time its direct children
(coarse spans and outermost fine calls) cover.  Counters only count
inside the timed window (``Tracer.window``); spans are kept for the
whole pass and carry the item they served, ``CHECK`` for the output
checks that run after the window.
"""

from __future__ import annotations

import functools
import sys
import time

CHECK = "check"

_CHECKERS = ("check_four_values_solvable", "check_cdc3_solvable",
             "check_cdc2_shape", "check_nilpotent_cdc3",
             "check_nonnilpotent_cdc3", "check_two_degrees")

# (module, attribute path, span name); a dotted path names a class member.
COARSE = [
    ("charval.permcore", "PermGroup.from_generators", "enumerate"),
    ("charval.permcore", "ClassData.__init__", "classes"),
    ("charval.permcore", "derived_series", "derived_series"),
    ("charval.permcore", "normal_subgroups", "normal_subgroups"),
    ("charval.permcore", "structure_flags", "structure_flags"),
    ("charval.chartab", "character_table", "character_table"),
    ("charval.chartab", "_self_verify", "self_verify"),
    ("charval.invariants", "report", "report"),
    ("charval.catalog", "bundle", "bundle"),
    ("charval.verify", "scan_checks", "scan_checks"),
    ("charval.symchar", "mn_value", "mn_value"),
] + [("charval.verify", name, "checker") for name in _CHECKERS]

FINE = [
    ("charval.cyclo", "Cyc.__mul__", "mul"),
    ("charval.cyclo", "Cyc.__rmul__", "mul"),
    ("charval.cyclo", "Cyc.__add__", "add"),
    ("charval.cyclo", "Cyc.__radd__", "add"),
    ("charval.cyclo", "Cyc.display", "display_parse"),
    ("charval.cyclo", "Cyc.parse", "display_parse"),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "outer",
                 "child_s", "fine")

    def __init__(self, name, parent, item, outer):
        self.name = name
        self.start = self.end = 0.0
        self.parent = parent
        self.item = item
        self.outer = outer      # no enclosing span of the same name
        self.child_s = 0.0      # time covered by direct children
        self.fine: dict[str, list] = {}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: object = None
        self.window = False
        # fine calls made outside any coarse span, per item
        self.unparented: dict[object, dict[str, list]] = {}
        self.counts = {"tables": 0, "k_cubed": 0, "elements": 0,
                       "classes": 0, "verdicts": 0, "fail": 0,
                       "ops": 0, "max_conductor": 0}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._in_fine = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, path, name in COARSE:
            self._patch(module, path, self._coarse(name, _POST.get(name)))
        for module, path, name in FINE:
            self._patch(module, path, self._fine(name))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules[module]
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(mod, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(make(raw.__func__))
            else:
                wrapped = make(raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            return
        original = getattr(mod, path)
        wrapped = make(original)
        # `from .x import f` copies the binding, so patch every charval
        # module that holds the same function object.
        for name, other in list(sys.modules.items()):
            if (name == "charval" or name.startswith("charval.")) and \
                    getattr(other, path, None) is original:
                self._patches.append((other, path, original))
                setattr(other, path, wrapped)

    # -- wrappers ----------------------------------------------------------

    def _coarse(self, name: str, post):
        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                stack = self._stack
                parent = stack[-1] if stack else None
                active = self._active.get(name, 0)
                rec = Span(name, parent, self.item, active == 0)
                stack.append(len(self.spans))
                self.spans.append(rec)
                self._active[name] = active + 1
                rec.start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec.end = time.perf_counter()
                    self._active[name] = active
                    stack.pop()
                    if parent is not None:
                        self.spans[parent].child_s += rec.end - rec.start
                if post is not None and self.window:
                    post(self.counts, args, result)
                return result
            return span
        return make

    def _fine(self, name: str):
        is_op = name in ("mul", "add")

        def make(fn):
            @functools.wraps(fn)
            def call(*args, **kwargs):
                if self._in_fine:
                    result = fn(*args, **kwargs)
                    if is_op:
                        self._bucket(name)[0] += 1
                        self._count_op(result)
                    return result
                self._in_fine = True
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    spent = time.perf_counter() - start
                    self._in_fine = False
                    if self._stack:
                        self.spans[self._stack[-1]].child_s += spent
                    entry = self._bucket(name)
                    entry[0] += 1
                    entry[1] += spent
                if is_op:
                    self._count_op(result)
                return result
            return call
        return make

    def _bucket(self, name: str) -> list:
        if self._stack:
            bucket = self.spans[self._stack[-1]].fine
        else:
            bucket = self.unparented.setdefault(self.item, {})
        entry = bucket.get(name)
        if entry is None:
            bucket[name] = entry = [0, 0.0]
        return entry

    def _count_op(self, result) -> None:
        if not self.window:
            return
        counts = self.counts
        counts["ops"] += 1
        n = getattr(result, "n", 0)
        if n > counts["max_conductor"]:
            counts["max_conductor"] = n

    # -- summaries ---------------------------------------------------------

    def inclusive(self, names, check: bool = False) -> float:
        """Summed duration of outermost spans with one of the names, in
        the timed window (or, with check=True, in the output checks)."""
        names = {names} if isinstance(names, str) else set(names)
        return sum((s.end - s.start for s in self.spans
                    if s.name in names and s.outer
                    and (s.item == CHECK) == check), 0.0)

    def self_time(self, name: str) -> float:
        return sum((s.end - s.start - s.child_s for s in self.spans
                    if s.name == name and s.item != CHECK), 0.0)

    def fine_seconds(self, name: str) -> float:
        """Time in outermost fine calls of one kind, in the timed window."""
        buckets = [s.fine for s in self.spans if s.item != CHECK]
        buckets += [b for item, b in self.unparented.items() if item != CHECK]
        return sum((b[name][1] for b in buckets if name in b), 0.0)

    def to_json(self) -> dict:
        return {
            "columns": ["index", "name", "start", "end", "parent", "item",
                        "fine"],
            "spans": [[i, s.name, s.start, s.end, s.parent, s.item, s.fine]
                      for i, s in enumerate(self.spans)],
            "unparented_fine": [[item, b] for item, b in
                                self.unparented.items()],
            "counts": self.counts,
        }


def _post_table(counts, args, table) -> None:
    counts["tables"] += 1
    counts["k_cubed"] += table.classes.n_classes ** 3


def _post_enumerate(counts, args, group) -> None:
    counts["elements"] += group.order


def _post_classes(counts, args, _none) -> None:
    counts["classes"] += args[0].n_classes


def _post_checker(counts, args, verdict) -> None:
    counts["verdicts"] += 1
    counts["fail"] += verdict.status == "FAIL"


def _post_scan(counts, args, verdicts) -> None:
    counts["verdicts"] += len(verdicts)
    counts["fail"] += sum(v.status == "FAIL" for v in verdicts)


_POST = {"character_table": _post_table, "enumerate": _post_enumerate,
         "classes": _post_classes, "checker": _post_checker,
         "scan_checks": _post_scan}
