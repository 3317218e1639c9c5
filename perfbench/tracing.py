"""Outside-in tracing: spans and counters around the program's public calls.

``Tracer.installed()`` swaps wrappers into the module namespaces the program
looks its callees up in, and restores the originals on exit.  No program file
changes.  Spans are kept in memory, turned into per-layer metrics after each
traced operation and written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
from time import perf_counter

from stealthtour import cli, evolution, geometry, sensing

# (module whose global is replaced, attribute, span name, size of the call)
SPANS = (
    (cli, "evolve", "evolution.evolve", None),
    (evolution, "evaluate", "evolution.evaluate", None),
    (evolution, "repair_budget", "evolution.repair_budget", None),
    (evolution, "crossover_two_point", "evolution.crossover_two_point", None),
    (evolution, "mutate", "evolution.mutate", None),
    (evolution, "build_tour", "geometry.build_tour", lambda a, k: len(a[0])),
    (geometry, "dubins_shortest", "geometry.dubins_shortest", None),
    (evolution, "exposure", "sensing.exposure", lambda a, k: len(getattr(a[1], "curves", (a[1],)))),
    (evolution, "non_dominated_sort", "pareto.non_dominated_sort", lambda a, k: len(a[0])),
    (evolution, "crowding_distance", "pareto.crowding_distance", lambda a, k: len(a[1])),
    (evolution, "hypervolume_2d", "pareto.hypervolume_2d", lambda a, k: len(a[0])),
)


class Tracer:
    """Spans and counters of one traced operation."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent index, start, end, size]
        self.stack: list[int] = []
        self.dubins_keys: set = set()
        self.dominance_tests = 0
        self.intensity_points = 0

    def traced(self, name: str, fn):
        """``fn`` in a span of its own; the benchmark wraps its timed operation so."""
        return self._wrap(name, fn, None)

    def _wrap(self, name, fn, size):
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name_idx, stack[-1] if stack else -1, 0.0, 0.0,
                    size(args, kwargs) if size else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced callees for the duration of the block."""
        saved = []

        def patch(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        for module, attr, name, size in SPANS:
            patch(module, attr, self._wrap(name, getattr(module, attr), size))
        dubins = geometry.dubins_shortest

        def keyed_dubins(start, end, radius):
            self.dubins_keys.add((start.x, start.y, start.theta, end.x, end.y, end.theta, radius))
            return dubins(start, end, radius)

        patch(geometry, "dubins_shortest", keyed_dubins)
        dominates = evolution.dominates

        def counted_dominates(a, b):
            self.dominance_tests += 1
            return dominates(a, b)

        patch(evolution, "dominates", counted_dominates)
        intensity_many = sensing.intensity_many

        def counted_intensity(field, xs, ys):
            self.intensity_points += len(xs)
            return intensity_many(field, xs, ys)

        patch(sensing, "intensity_many", counted_intensity)
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of everything recorded since the tracer was made."""
        n = len(self.spans)
        child = [0.0] * n
        for name_idx, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            by_name.setdefault(self.names[span[0]], []).append(i)

        def spans_of(name):
            return by_name.get(name, [])

        def dur(i):
            return self.spans[i][3] - self.spans[i][2]

        def self_s(name):
            return sum(dur(i) - child[i] for i in spans_of(name))

        def total_s(name):
            return sum(dur(i) for i in spans_of(name))

        def layer_self_s(layer):
            return sum(self_s(name) for name in by_name if name.startswith(layer + "."))

        roots = [i for i, s in enumerate(self.spans) if s[1] < 0]
        wall = sum(dur(i) for i in roots)
        dubins_calls = len(spans_of("geometry.dubins_shortest"))
        evaluate_us = sorted(dur(i) * 1e6 for i in spans_of("evolution.evaluate"))
        repair = set(spans_of("evolution.repair_budget"))
        sorts = spans_of("pareto.non_dominated_sort")
        max_n = max((self.spans[i][4] for i in sorts), default=0)
        at_max_n = [dur(i) for i in sorts if self.spans[i][4] == max_n]
        curves = sum(self.spans[i][4] for i in spans_of("sensing.exposure"))
        solve = [i for i in roots if self.names[self.spans[i][0]] == "cli.solve"]

        def quantile(values, q):
            if len(values) < 2:
                return values[0] if values else 0.0
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        return {
            "geometry.dubins_calls": dubins_calls,
            "geometry.dubins_distinct": len(self.dubins_keys),
            "geometry.edge_repeat_share": 1.0 - len(self.dubins_keys) / dubins_calls if dubins_calls else 0.0,
            "geometry.dubins_us": self_s("geometry.dubins_shortest") / dubins_calls * 1e6 if dubins_calls else 0.0,
            "geometry.build_tour_calls": len(spans_of("geometry.build_tour")),
            "geometry.self_s": layer_self_s("geometry"),
            "sensing.exposure_calls": len(spans_of("sensing.exposure")),
            "sensing.curves_integrated": curves,
            "sensing.intensity_points": self.intensity_points,
            "sensing.us_per_curve": total_s("sensing.exposure") / curves * 1e6 if curves else 0.0,
            "sensing.self_s": layer_self_s("sensing"),
            "evolution.evaluate_calls": len(evaluate_us),
            "evolution.evaluate_us_p50": quantile(evaluate_us, 50),
            "evolution.evaluate_us_p99": quantile(evaluate_us, 99),
            "evolution.repair_calls": len(repair),
            "evolution.repair_rebuilds": sum(
                1 for i in spans_of("geometry.build_tour") if self.spans[i][1] in repair),
            "evolution.repair_self_s": self_s("evolution.repair_budget"),
            "evolution.variation_self_s": self_s("evolution.crossover_two_point") + self_s("evolution.mutate"),
            "evolution.archive_dominance_tests": self.dominance_tests,
            "evolution.self_s": layer_self_s("evolution"),
            "pareto.sort_calls": len(sorts),
            "pareto.sort_s": total_s("pareto.non_dominated_sort"),
            "pareto.sort_max_n": max_n,
            "pareto.sort_ms_at_max_n": statistics.median(at_max_n) * 1e3 if at_max_n else 0.0,
            "pareto.crowding_s": total_s("pareto.crowding_distance"),
            "pareto.hypervolume_s": total_s("pareto.hypervolume_2d"),
            "pareto.self_s": layer_self_s("pareto"),
            "pareto.sort_share": total_s("pareto.non_dominated_sort") / wall if wall else 0.0,
            "cli.io_s": sum(dur(i) for i in solve) - total_s("evolution.evolve"),
            "trace.wall_s": wall,
            "trace.overhead_s": wall - untraced_wall_s,
            "trace.spans": n,
        }

    def write(self, path) -> None:
        """Spans as gzipped CSV: name, parent row, start and end in seconds, size."""
        with gzip.open(path, "wt") as out:
            out.write("name,parent,start_s,end_s,size\n")
            for name_idx, parent, t0, t1, size in self.spans:
                out.write(f"{self.names[name_idx]},{parent},{t0!r},{t1!r},{size}\n")
