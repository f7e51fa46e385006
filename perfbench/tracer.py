"""Outside-in tracer: run one occ command in this process with the public
functions of every occlib layer wrapped, then write spans and counters.

    python3 perfbench/tracer.py SUMMARY.json RUN_ID -- <occ arguments>

The wrappers are installed from outside the program.  occlib modules bind
names with ``from .x import f``, so each wrapper replaces its original by
object identity in every ``occlib.*`` module namespace; public methods are
patched on their class.  Spans (name, start, end, parent, run id) are kept in
memory and written next to the summary when the command ends.  The exit code
and standard output are those of the command itself.
"""

from __future__ import annotations

import time

_T_START = time.monotonic_ns()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# layer name -> module; the layer name of occlib._parallel drops the
# underscore because metric names must start with a letter.
LAYERS = {
    "graph": "occlib.graph",
    "cutstats": "occlib.cutstats",
    "exact": "occlib.exact",
    "hypercube": "occlib.hypercube",
    "families": "occlib.families",
    "spectra": "occlib.spectra",
    "schur": "occlib.schur",
    "cli": "occlib.cli",
    "parallel": "occlib._parallel",
}

# Leaf helpers left unwrapped: edge_index is index arithmetic called about a
# million times per command while canonical forms are set up, and a span per
# call would double the time of the graph layer.  Its time stays with the
# caller.
UNWRAPPED = frozenset({"graph.edge_index"})


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.observers = {
            "cutstats.cut_profile": self._count_colorings,
            "exact.certify_sign": self._count_certificate,
            "exact.sturm_chain": self._count_sturm_degree,
            "hypercube.FunctionOnCube.walsh": self._count_butterfly,
            "hypercube.FunctionOnCube.inverse_walsh": self._count_butterfly,
        }

    def _add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _count_colorings(self, args, out) -> None:
        self._add("cutstats.colorings", out[2])

    def _count_certificate(self, args, out) -> None:
        self._add("exact.certificates", 1)
        self._add("exact.certificates_failed", 0 if out.passed else 1)

    def _count_sturm_degree(self, args, out) -> None:
        self._add("exact.sturm_degree_sum", args[0].degree)

    def _count_butterfly(self, args, out) -> None:
        # computed, not observed: a full transform on a cube of dimension
        # d = C(n, 2) makes d * 2^(d-1) butterfly updates
        dim = args[0].n * (args[0].n - 1) // 2
        self._add("hypercube.butterfly_updates", dim << (dim - 1))

    def wrap(self, fn, name: str):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        observe = self.observers.get(name)

        if observe is None:
            def wrapper(*args, **kwargs):
                i = len(spans)
                spans.append(None)
                stack.append(i)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[i] = (idx, t0, t1, stack[-1])
        else:
            def wrapper(*args, **kwargs):
                i = len(spans)
                spans.append(None)
                stack.append(i)
                t0 = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    spans[i] = (idx, t0, t1, stack[-1])
                observe(args, out)
                return out

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> list[str]:
        """Wrap every layer; return the layers whose module is absent."""
        absent = []
        replaced: dict[int, tuple[object, object]] = {}
        for layer, modname in LAYERS.items():
            try:
                mod = importlib.import_module(modname)
            except ImportError:
                absent.append(layer)
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isclass(obj):
                    self._patch_class(obj, f"{layer}.{name}")
                elif f"{layer}.{name}" in UNWRAPPED:
                    continue
                elif inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{name}"))
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("occlib"):
                continue
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return absent

    def _patch_class(self, cls, prefix: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                setattr(cls, name, staticmethod(self.wrap(raw.__func__, f"{prefix}.{name}")))
            elif isinstance(raw, classmethod):
                setattr(cls, name, classmethod(self.wrap(raw.__func__, f"{prefix}.{name}")))
            elif inspect.isfunction(raw):
                setattr(cls, name, self.wrap(raw, f"{prefix}.{name}"))

    def summary(self) -> dict:
        """Self time per layer; calls and inclusive time of every wrapped
        function, zero for those never called."""
        layer_of = [n.split(".", 1)[0] for n in self.names]
        self_ns: dict[str, int] = {}
        calls = [0] * len(self.names)
        incl = [0] * len(self.names)
        spans = self.spans
        for idx, t0, t1, parent in spans:
            dur = t1 - t0
            calls[idx] += 1
            incl[idx] += dur
            layer = layer_of[idx]
            self_ns[layer] = self_ns.get(layer, 0) + dur
            if parent >= 0:
                player = layer_of[spans[parent][0]]
                self_ns[player] = self_ns.get(player, 0) - dur
        return {
            "self_ns": self_ns,
            "calls": dict(zip(self.names, calls)),
            "incl_ns": dict(zip(self.names, incl)),
            "counters": self.counters,
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"run_id": self.run_id, "names": self.names}) + "\n")
            fh.writelines(f"{i} {t0} {t1} {p}\n" for i, t0, t1, p in self.spans)


def main() -> int:
    out_path, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY.json RUN_ID -- <occ arguments>")
    spawned = int(os.environ.get("PERFBENCH_SPAWN_NS", _T_START))
    import occlib.cli  # noqa: F401  (the import users pay; timed as set-up)
    t_imported = time.monotonic_ns()
    tracer = Tracer(int(run_id))
    absent_layers = tracer.install()
    canon = getattr(sys.modules.get("occlib.graph"), "canonical_form", None)
    cache_before = canon.cache_info() if hasattr(canon, "cache_info") else None
    t_installed = time.monotonic_ns()
    code = 1
    try:
        code = sys.modules["occlib.cli"].main(argv)
    finally:
        sys.stdout.flush()
        t_done = time.monotonic_ns()
        info = tracer.summary()
        if cache_before is not None:
            after = canon.cache_info()
            info["cache"] = {"graph.canonical_form": [after.hits - cache_before.hits,
                                                       after.misses - cache_before.misses]}
        info["layers_absent"] = absent_layers
        info["setup_ns"] = t_imported - spawned
        tracer.write_spans(out_path + ".spans")
        info["trace_ns"] = (t_installed - t_imported) + (time.monotonic_ns() - t_done)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
