"""In-process tracer for one ksums request.

`Tracer.install()` wraps every public function of the package's nine layer
modules and rebinds each wrapper in every `ksums` namespace that holds the
same object, so names imported with `from ksums.combinat import binom` are
caught as well as `field.mul`. Each wrapper times its call as a span on a
shared stack; a span's self time is its duration minus the durations of the
wrapped calls made inside it.

Each layer module is imported under a timer, in dependency order so that an
import runs only that module's body; a cold CLI call pays this per layer.

Spans are aggregated per function as they close (calls, self seconds, items
yielded), so memory stays bounded however many million `field.mul` calls a
request makes, and nothing is written until `snapshot()` at exit. A few
functions also feed counters computed from their arguments or results. The
field's table builders also record inclusive time, counting only the
outermost of them so that nested table builds are not counted twice.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("field", "combinat", "matgf", "charsums", "orthogroup",
          "coset_codes", "moments", "verify", "cli")

TABLES = frozenset({"field.trace_table", "field.char_table", "field.mul_table",
                    "field.inv_table"})


def _arg(args, kwargs, index, name, default):
    return args[index] if len(args) > index else kwargs.get(name, default)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = [0.0]  # per open span: seconds covered by its child spans
        self.functions = {}  # "layer.name" -> [calls, self_s, items yielded]
        self.tables = [0, 0.0]  # open table builds, seconds in outermost ones
        self.counters = Counter()
        self.caches = {}  # "layer.name" -> lru_cache wrapper, private ones too
        self.originals = {}  # "layer.name" -> unwrapped public function
        self.import_s = {}  # layer -> seconds its module body took to import
        self._seen = set()  # (counter, cache key) already counted
        self._restore = []
        self._hooks = {
            "charsums.kloosterman": self._count_kloosterman,
            "matgf.gl_matrices": self._count_gl_tried,
            "orthogroup.parabolic_matrices": self._count_parabolic,
            "orthogroup.bruhat_cell": self._count_cell,
            "coset_codes.weight_distribution": self._count_dp_terms,
            "verify.run_checks": self._count_checks,
        }

    # -- spans ----------------------------------------------------------------

    def enter(self):
        """Open a span; returns its start time."""
        self.stack.append(0.0)
        return self.clock()

    def exit(self, record, start):
        """Close the innermost span and charge its self time to record."""
        dt = self.clock() - start
        record[1] += dt - self.stack.pop()
        self.stack[-1] += dt
        return dt

    def wrap(self, name, fn):
        """Return a traced stand-in for fn, recorded under name."""
        record = self.functions.setdefault(name, [0, 0.0, 0])
        hook = self._hooks.get(name)
        table = self.tables if name in TABLES else None
        enter, exit_ = self.enter, self.exit

        if inspect.isgeneratorfunction(fn):
            def resume(it):
                # each resumption of the generator is one span
                while True:
                    start = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        exit_(record, start)
                    record[2] += 1
                    yield item

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                record[0] += 1
                if hook:
                    hook(args, kwargs, None)
                return resume(fn(*args, **kwargs))
            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record[0] += 1
            if table:
                table[0] += 1
            start = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = exit_(record, start)
                if table:
                    table[0] -= 1
                    if not table[0]:
                        table[1] += dt
            if hook:
                hook(args, kwargs, result)
            return result
        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer module, in every namespace."""
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            start = self.clock()
            mod = importlib.import_module(f"ksums.{layer}")
            self.import_s[layer] = self.clock() - start
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                cached = hasattr(obj, "cache_info")
                if cached:
                    self.caches[f"{layer}.{attr}"] = obj
                if attr.startswith("_") or not (cached or inspect.isfunction(obj)):
                    continue
                self.originals[f"{layer}.{attr}"] = obj
                wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for name, ns in sorted(sys.modules.items()):
            if name != "ksums" and not name.startswith("ksums."):
                continue
            for attr, obj in list(vars(ns).items()):
                if id(obj) in wrappers:
                    setattr(ns, attr, wrappers[id(obj)])
                    self._restore.append((ns, attr, obj))

    def uninstall(self):
        """Put every original binding back."""
        for ns, attr, obj in reversed(self._restore):
            setattr(ns, attr, obj)
        self._restore.clear()

    # -- counters fed from arguments and results -------------------------------

    def _count_kloosterman(self, args, kwargs, result):
        fp, m = args[0], _arg(args, kwargs, 2, "m", 1)
        self.counters["charsums.enum_tuples"] += (fp.q - 1) ** m

    def _count_gl_tried(self, args, kwargs, result):
        fp, n = args[0], _arg(args, kwargs, 1, "n", None)
        self.counters["matgf.gl_tried"] += fp.q ** (n * n)

    def _first(self, *key):
        """True the first time key is seen: a cached function built its result."""
        if key in self._seen:
            return False
        self._seen.add(key)
        return True

    def _count_parabolic(self, args, kwargs, result):
        if self._first("parabolic", args[0], _arg(args, kwargs, 1, "n", None)):
            self.counters["orthogroup.parabolic_elements"] += len(result)

    def _count_cell(self, args, kwargs, cell):
        if not self._first("cell", cell.fp, cell.n, cell.r):
            return
        size = self.originals["orthogroup.parabolic_order"](cell.n, cell.fp.q)
        self.counters["orthogroup.cells_built"] += 1
        self.counters["orthogroup.products"] += size * size
        self.counters["orthogroup.cell_elements"] += len(cell.elements)

    def _count_dp_terms(self, args, kwargs, result):
        self.counters["coset_codes.dp_terms"] += len(result)

    def _count_checks(self, args, kwargs, report):
        self.counters["verify.checks"] += report["summary"]["total"]
        self.counters["verify.checks_failed"] += report["summary"]["failed"]

    # -- output ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything recorded so far, as JSON-ready data."""
        return {
            "functions": {k: v for k, v in self.functions.items() if v[0]},
            "imports": self.import_s,
            "table_s": self.tables[1],
            "counters": dict(self.counters),
            "caches": {name: _cache_counts(obj) for name, obj in self.caches.items()},
        }


def _cache_counts(cached):
    info = cached.cache_info()
    return [info.hits, info.misses, info.currsize]
