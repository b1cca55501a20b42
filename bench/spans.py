"""Outside-in span tracing of gpnet's layers.

The tracer replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent) and per-function
call counts and self times.  Nothing is added to the package source: the
wrappers are installed by rebinding names, both in the defining module
and in every gpnet module that imported the function by name (solvers and
conditions call forward, preactivations and apply_masked_t through their
own namespaces).  uninstall() puts the original functions back.

Self time of a span is its duration minus the time covered by its direct
child spans.  A few boundaries also feed counters that explain the times:
full-depth propagation sweeps, dense decompositions, solver iterations,
skipped R2WDC tuples and failed sweep cells.
"""

from collections import Counter, defaultdict
import gzip
import importlib
import inspect
import time

PACKAGE = "gpnet"
LAYERS = ("net", "geometry", "solvers", "conditions", "harness", "cli", "rng")

# One call of any of these walks every layer of the net once.
PROPAGATION = ("net.forward", "net.preactivations", "net.linear_path",
               "net.apply_masked_t")

# geometry.spectral_norm decomposes densely up to this side length and
# iterates matrix-free beyond it.
DENSE_SIDE_MAX = 2000


class Tracer:
    """Wraps the public functions of gpnet's layer modules and aggregates
    their spans.  Create one per traced phase."""

    def __init__(self):
        self.names = []
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0])  # name -> [calls, self_s]
        self.counters = Counter()
        self._stack = []
        self._rebound = []
        self._solve = None  # [sweeps, sweeps at last subgradient, subgradients]
        self._t0 = time.perf_counter()
        self._hooks = {name: self._on_propagation for name in PROPAGATION}
        self._hooks.update({
            "solvers.solve": self._on_solve,
            "solvers.subgradient": self._on_subgradient,
            "geometry.spectral_norm": self._on_spectral_norm,
            "conditions.r2wdc_tuple_value": self._on_r2wdc_tuple,
            "harness.run_cell": self._on_run_cell,
        })

    # -- installation -------------------------------------------------

    def install(self):
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebound.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[obj])
        return self

    def uninstall(self):
        for mod, attr, obj in reversed(self._rebound):
            setattr(mod, attr, obj)
        self._rebound.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans = self.spans
        stack = self._stack
        stats = self.stats[name]
        hook = self._hooks.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [len(spans), 0.0]
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            if hook is not None:
                hook(args, None, True)
            stack.append(frame)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (nid, start, end, parent)
                stats[0] += 1
                stats[1] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if hook is not None:
                    hook(args, result, False)

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- counters at layer boundaries ---------------------------------

    def _on_propagation(self, args, result, entering):
        if entering:
            return
        self.counters["net.layer_passes"] += args[0].depth
        if self._solve is not None:
            self._solve[0] += 1

    def _on_subgradient(self, args, result, entering):
        if not entering and self._solve is not None:
            self._solve[1] = self._solve[0]
            self._solve[2] += 1

    def _on_solve(self, args, result, entering):
        if entering:
            self._solve = [0, 0, 0]
            return
        sweeps, sweeps_at_last_subgradient, subgradients = self._solve
        self._solve = None
        self.counters["solvers.iteration_sweeps"] += sweeps_at_last_subgradient
        self.counters["solvers.subgradients_in_solve"] += subgradients
        if result is not None:
            self.counters["solvers.solves"] += 1
            self.counters["solvers.iterations"] += result.n_steps
            self.counters["solvers.negations"] += len(result.negations)
            self.counters["solvers.step_tol_stops"] += result.stop_reason == "step_tol"

    def _on_spectral_norm(self, args, result, entering):
        if entering:
            return
        shape = getattr(args[0], "shape", ())
        if len(shape) == 2 and 0 < min(shape) and max(shape) <= DENSE_SIDE_MAX:
            self.counters["geometry.dense_decomps"] += 1

    def _on_r2wdc_tuple(self, args, result, entering):
        if not entering and result is None:
            self.counters["conditions.r2wdc.skipped"] += 1

    def _on_run_cell(self, args, result, entering):
        if not entering and result is not None and result["failed"]:
            self.counters["harness.cells_failed"] += 1

    # -- results --------------------------------------------------------

    def calls(self, name):
        return self.stats[name][0] if name in self.stats else 0

    def self_s(self, name):
        return self.stats[name][1] if name in self.stats else 0.0

    def layer_self_s(self, layer):
        return sum(s[1] for name, s in self.stats.items()
                   if name.split(".", 1)[0] == layer)

    def write(self, path):
        """Write every span as gzip CSV, times in seconds since the tracer was made."""
        with gzip.open(path, "wt", newline="") as f:
            f.write("id,name,start_s,end_s,parent\n")
            for i, (nid, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{self.names[nid]},{start - self._t0:.9f},"
                        f"{end - self._t0:.9f},{parent}\n")
