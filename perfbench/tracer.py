"""Layer tracing for the benchmark, installed from outside the program.

`Tracer.install` replaces each named public function of `noninner` with a
timing wrapper, in every `noninner` module that holds a reference to it
(so `from .structure import closure` in another module is traced too);
methods are replaced on their class.  Spans (name, start, end, parent) are
kept in memory and written out at the end as JSON lines.

The collector functions (`PcGroup.mul`, `inv`, `pow`, `conj`, `comm`,
`mul_idx`) run about a million times per operation, so they keep no span
of their own: their calls are counted in place, and `mul` (which recurses
into itself through `_mul_gen`) is timed at its outermost call only.  A
parent's self time still excludes that time, because every timed wrapper
adds its duration to the frame of its caller.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

PACKAGE = "noninner"

SPANNED = [
    ("pcpfile", "parse_pcp_file"),
    ("pcgroup", "PcGroup.__init__"),
    ("pcgroup", "PcGroup.right_mult_perm"),
    ("pcgroup", "PcGroup.inv_table"),
    ("structure", "upper_central_series"),
    ("structure", "lower_central_series"),
    ("structure", "frattini"),
    ("structure", "coset_min_table"),
    ("structure", "closure"),
    ("structure", "centralizer"),
    ("structure", "quotient_exponent_is_p"),
    ("structure", "quotient_is_cyclic"),
    ("eligibility", "decide_route"),
    ("eligibility", "select_n"),
    ("eligibility", "select_generators"),
    ("eligibility", "diagnostics"),
    ("eligibility", "central_automorphisms"),
    ("cocycles", "derivation_from_b_exponent"),
    ("cocycles", "derivation_from_a_exponent"),
    ("cocycles", "coset_exponents"),
    ("cocycles", "verify_cocycle"),
    ("cocycles", "lift_to_automorphism"),
    ("maps", "verify_automorphism"),
    ("maps", "map_order"),
    ("maps", "GroupMap.apply_table"),
    ("maps", "find_conjugating_element"),
    ("maps", "is_central_map"),
    ("certify", "certify_group"),
]

AGGREGATED = [
    ("pcgroup", "PcGroup.mul"),
    ("pcgroup", "PcGroup.inv"),
    ("pcgroup", "PcGroup.pow"),
    ("pcgroup", "PcGroup.conj"),
    ("pcgroup", "PcGroup.comm"),
    ("pcgroup", "PcGroup.mul_idx"),
]

# aggregated functions that are timed as well as counted; a call made
# beneath another call of the same function is counted but not timed, so
# the self time is that of the whole recursive collection
TIMED = {"pcgroup.PcGroup.mul"}

# spans whose peak Python-and-numpy allocation is measured with tracemalloc
# while `Tracer.measure_alloc` is set; tracemalloc slows every allocation
# beneath them, so the run sets it only for an untimed pass
ALLOC_TRACED = {"structure.coset_min_table"}


class Stats:
    __slots__ = ("calls", "total", "self_time", "depth", "alloc_peak")

    def __init__(self):
        self.calls = 0
        self.total = 0.0  # outermost calls only, so recursion is not counted twice
        self.self_time = 0.0
        self.depth = 0
        self.alloc_peak = 0

    def copy(self) -> "Stats":
        out = Stats()
        out.calls, out.total, out.self_time = self.calls, self.total, self.self_time
        out.alloc_peak = self.alloc_peak
        return out


class Tracer:
    """Per-run recorder.  `span` marks the benchmark's own boundaries
    (one per operation); `install` adds the library's layers below them."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent id, self time, attrs]
        self.stats: dict = {}
        # each frame is [child time, span id]; the bottom frame is the run
        self._stack: list = [[0.0, None]]
        self.measure_alloc = False

    def install(self) -> None:
        for module, qualname in SPANNED:
            self._patch(module, qualname, self._spanned)
        for module, qualname in AGGREGATED:
            self._patch(module, qualname, self._aggregated)

    def _patch(self, module, qualname, make) -> None:
        name = f"{module}.{qualname.replace('.__init__', '')}"
        self.stats[name] = Stats()
        mod = sys.modules[f"{PACKAGE}.{module}"]
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, attr, make(name, getattr(cls, attr)))
            return
        original = getattr(mod, qualname)
        wrapper = make(name, original)
        for mname, other in list(sys.modules.items()):
            if mname == PACKAGE or mname.startswith(PACKAGE + "."):
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    def _spanned(self, name, fn):
        stats = self.stats[name]
        stack = self._stack
        spans = self.spans
        alloc = name in ALLOC_TRACED
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            frame = [0.0, span_id]
            parent = stack[-1][1]
            stack.append(frame)
            stats.depth += 1
            traced = alloc and self.measure_alloc
            if traced:
                tracemalloc.start()
            start = clock()
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = _attrs(name, result)
                return result
            finally:
                end = clock()
                if traced:
                    stats.alloc_peak = max(stats.alloc_peak, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                stats.depth -= 1
                dur = end - start
                self_time = dur - frame[0]
                stack[-1][0] += dur
                stats.calls += 1
                stats.self_time += self_time
                if stats.depth == 0:
                    stats.total += dur
                spans[span_id] = [name, start, end, parent, self_time, attrs]

        return wrapper

    def _aggregated(self, name, fn):
        stats = self.stats[name]
        if name not in TIMED:
            def counted(*args):
                stats.calls += 1
                return fn(*args)

            return counted
        stack = self._stack
        clock = time.perf_counter

        # the collector calls no spanned function, so it needs no frame of
        # its own and its self time is its whole time
        def wrapper(*args):
            stats.calls += 1
            if stats.depth:
                return fn(*args)
            stats.depth = 1
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                stats.depth = 0
                stack[-1][0] += dur
                stats.total += dur
                stats.self_time += dur

        return wrapper

    def span(self, name: str):
        """Context manager for a benchmark-level span."""
        return _Span(self, name)

    def snapshot(self) -> dict:
        return {name: s.copy() for name, s in self.stats.items()}

    def count_children(self, child: str, parent: str) -> int:
        """Spans named `child` whose direct parent span is named `parent`."""
        spans = self.spans
        return sum(
            1 for s in spans
            if s[0] == child and s[3] is not None and spans[s[3]][0] == parent
        )

    def attr_values(self, name: str) -> list:
        return [s[5] for s in self.spans if s[0] == name]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, (name, start, end, parent, self_time, attrs) in enumerate(self.spans):
                row = {"id": span_id, "name": name, "start": start, "end": end,
                       "parent": parent, "self_s": self_time}
                if attrs is not None:
                    row["attrs"] = attrs
                fh.write(json.dumps(row) + "\n")
            for module, qualname in AGGREGATED:
                name = f"{module}.{qualname}"
                row = {"name": name, "calls": self.stats[name].calls}
                if name in TIMED:
                    row["self_s"] = self.stats[name].self_time
                fh.write(json.dumps(row) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.span_id = len(t.spans)
        t.spans.append(None)
        self.frame = [0.0, self.span_id]
        self.parent = t._stack[-1][1]
        t._stack.append(self.frame)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        end = time.perf_counter()
        t._stack.pop()
        dur = end - self.start
        t._stack[-1][0] += dur
        t.spans[self.span_id] = [self.name, self.start, end, self.parent, dur - self.frame[0], None]
        return False


def _attrs(name, result):
    """Result facts two per-layer ratios need."""
    if name == "eligibility.central_automorphisms":
        return {"accepted": len(result)}
    if name == "certify.certify_group":
        return {"certified": result.certificates is not None}
    return None
