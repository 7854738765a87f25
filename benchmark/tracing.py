"""Spans around the program's public functions, installed from outside.

The program has no tracing of its own.  A traced round replaces each
public function at the module attribute through which the commands reach
it (``filtered_spectra.cli.density_profile``, ``...matrixlab.
eigenvalues_symmetric`` and so on) with a wrapper that records a span,
and puts the originals back when the round ends.  A span's parent is the
innermost open span of its thread or, in a worker thread that has none
(``simulate`` samples in a thread pool), the innermost open span of the
main thread, which is waiting for it.  A span's self time is its duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


class Tracer:
    """The spans and counters of one traced round."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent span or None]
        self.counts = Counter()
        self._main = []            # open spans of the main thread
        self._local = threading.local()
        self._lock = threading.Lock()  # counters are updated from pool threads

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else \
                (self._main[-1] if self._main else None)
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            with self._lock:
                self.counts[name + ".calls"] += 1
                if count is not None:
                    count(self.counts, args, result)
            return result
        return traced

    @contextmanager
    def installed(self, points):
        """points: (module, attribute, span name, counter or None)."""
        saved = []
        try:
            for module, attr, name, count in points:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def times(self) -> tuple:
        """Per span name: (inclusive seconds, self seconds), summed."""
        children = defaultdict(list)
        for span in self.spans:
            if span[3] is not None:
                children[id(span[3])].append((span[1], span[2]))
        inclusive, own = defaultdict(float), defaultdict(float)
        for span in self.spans:
            name, start, end, _ = span
            inclusive[name] += end - start
            own[name] += end - start - covered(children[id(span)])
        return inclusive, own


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def _count_density(counts, args, result):
    counts["colorsolve.targets"] += 2 * len(args[1])    # two heights per x
    counts["colorsolve.failed_points"] += sum(not f for f in result.flags)


def trace_points(fs):
    """Where each layer is entered; fs holds the program's modules."""
    cli, ml, cs, cb, al = fs.cli, fs.matrixlab, fs.colorsolve, fs.combinat, \
        fs.algebra
    return [
        (cli, "main", "cli.main", None),
        (cli, "read_color_document", "kernel.read_color_document", None),
        (cli, "as_kernel", "kernel.as_kernel", None),
        (cli, "validate_kernel", "kernel.validate_kernel", None),
        (ml, "gaussian_entries", "rng.gaussian_entries",
         _add("rng.draws", lambda a, r: r.size)),
        (cli, "sample_filtered_wigner", "matrixlab.sample_filtered_wigner",
         None),
        (cli, "sample_colored_gaussian", "matrixlab.sample_colored_gaussian",
         None),
        (cli, "esd_statistics", "matrixlab.esd_statistics", None),
        (ml, "eigenvalues_symmetric", "matrixlab.eigenvalues_symmetric",
         _add("matrixlab.eigenvalues", lambda a, r: len(r))),
        (cli, "density_profile", "colorsolve.density_profile",
         _count_density),
        (cs, "stieltjes_path", "colorsolve.stieltjes_path",
         _add("colorsolve.targets", lambda a, r: len(r))),
        (cli, "theoretical_moments", "moments.theoretical_moments", None),
        (cli, "moments_by_enumeration", "combinat.moments_by_enumeration",
         None),
        (cb, "enumerate_wigner_partitions",
         "combinat.enumerate_wigner_partitions",
         _add("combinat.partitions", lambda a, r: len(r))),
        (cli, "rank_one_eliminate", "algebra.rank_one_eliminate",
         _add("algebra.curves_certified", lambda a, r: 1)),
        (cli, "verify_curve", "algebra.verify_curve", None),
        (al, "verify_curve", "algebra.verify_curve", None),
        (al, "discriminant", "algebra.discriminant", None),
        (al, "real_roots", "algebra.real_roots", None),
    ]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """The per-layer metrics of one traced round."""
    (inc, own), n = tr.times(), tr.counts
    eig_s = inc["matrixlab.eigenvalues_symmetric"]
    solve_s = inc["colorsolve.density_profile"] + inc["colorsolve.stieltjes_path"]
    return {
        "rng.gaussian_entries_s": inc["rng.gaussian_entries"],
        "rng.draws": n["rng.draws"],
        "rng.draws_per_s": _rate(n["rng.draws"], inc["rng.gaussian_entries"]),
        "matrixlab.sample_filtered_wigner_self_s":
            own["matrixlab.sample_filtered_wigner"],
        "matrixlab.sample_colored_gaussian_self_s":
            own["matrixlab.sample_colored_gaussian"],
        "matrixlab.eigenvalues_symmetric_s": eig_s,
        "matrixlab.eigenvalues_symmetric_calls":
            n["matrixlab.eigenvalues_symmetric.calls"],
        "matrixlab.eigenvalues_per_s": _rate(n["matrixlab.eigenvalues"], eig_s),
        "matrixlab.esd_statistics_self_s": own["matrixlab.esd_statistics"],
        "colorsolve.density_profile_s": inc["colorsolve.density_profile"],
        "colorsolve.targets": n["colorsolve.targets"],
        "colorsolve.targets_per_s": _rate(n["colorsolve.targets"], solve_s),
        "colorsolve.failed_points": n["colorsolve.failed_points"],
        "colorsolve.stieltjes_path_s": inc["colorsolve.stieltjes_path"],
        "moments.theoretical_moments_s": inc["moments.theoretical_moments"],
        "combinat.moments_by_enumeration_s":
            inc["combinat.moments_by_enumeration"],
        "combinat.partitions": n["combinat.partitions"],
        "combinat.partitions_per_s": _rate(
            n["combinat.partitions"], inc["combinat.moments_by_enumeration"]),
        "algebra.rank_one_eliminate_self_s": own["algebra.rank_one_eliminate"],
        "algebra.verify_curve_self_s": own["algebra.verify_curve"],
        "algebra.discriminant_s": inc["algebra.discriminant"],
        "algebra.real_roots_s": inc["algebra.real_roots"],
        "algebra.curves_certified": n["algebra.curves_certified"],
        "kernel.inputs_s": sum(v for k, v in inc.items()
                               if k.startswith("kernel.")),
        "cli.self_s": own["cli.main"],
    }


def median_metrics(rounds: list) -> dict:
    """Per metric, the median over the traced rounds."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
