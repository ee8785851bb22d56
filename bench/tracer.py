"""Outside-in layer trace: wraps qtchar's public functions from the bench.

Nothing inside `src/` is changed.  Every wrapped call records one span
(name, start, end, parent) in flat in-memory arrays; self time is a span's
duration minus the durations of its direct children.  Spans are written out
once, at the end of the pass.

Two lookups need care.  `qtchar.algebra` is the convenience function
re-exported by the package, so the module is taken from `sys.modules`.
`characters` imports `f_it` by name and `screening` imports `ft_sl2` by name,
so those are wrapped where they are looked up, not where they are defined.
"""

from __future__ import annotations

import importlib
import importlib.machinery
import sys
import time
from array import array

clock = time.perf_counter_ns

# (module, attribute, span name); a class attribute is "Class.method"
SPANS = [
    ("qtchar.cartan", "InvCartanSeries.__init__", "cartan.series_init"),
    ("qtchar.algebra", "YtAlgebra.mul", "algebra.mul"),
    ("qtchar.algebra", "YtAlgebra.factor_over_A", "algebra.factor_over_A"),
    ("qtchar.algebra", "YtAlgebra.a_monomial_expand", "algebra.a_monomial_expand"),
    ("qtchar.characters", "f_it", "screening.f_it"),
    ("qtchar.screening", "ft_sl2", "sl2.ft_sl2"),
    ("qtchar.characters", "t_algorithm", "characters.t_algorithm"),
    ("qtchar.characters", "chi_qt_inverse", "characters.chi_qt_inverse"),
    ("qtchar.characters", "e_t", "characters.e_t"),
    ("qtchar.characters", "lt_and_kl", "characters.lt_and_kl"),
    ("qtchar.grammar", "serialize_element", "grammar.serialize_element"),
]


class _TimedImport:
    """Meta-path finder that times the execution of one module's import.

    The time is cumulative: it includes the modules that module imports
    first (for `qtchar.cartan`, sympy).
    """

    def __init__(self, name: str, sink: dict):
        self.name, self.sink = name, sink

    def find_spec(self, fullname, path=None, target=None):
        if fullname != self.name:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is not None:
            loader_exec = spec.loader.exec_module

            def exec_module(module):
                t0 = clock()
                try:
                    loader_exec(module)
                finally:
                    self.sink[self.name] = (clock() - t0) / 1e9

            spec.loader.exec_module = exec_module
        return spec


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.stack = [-1]
        self.import_s = {}
        self.term_pairs = 0
        self.depth_max = 0
        self.monomials = 0
        self.fit_keys = set()
        self.ft_keys = set()
        self.entry_calls = 0

    # -- installation ----------------------------------------------------

    def hook_imports(self):
        """Call before `qtchar` is first imported."""
        sys.meta_path.insert(0, _TimedImport("qtchar.cartan", self.import_s))

    def install(self):
        """Wrap the layer functions; `qtchar` must already be imported."""
        for module, attr, name in SPANS:
            owner, attr = _resolve(module, attr)
            setattr(owner, attr, self._span(name, getattr(owner, attr), _COUNTERS.get(name)))
        algebra = sys.modules["qtchar.algebra"].YtAlgebra
        series = sys.modules["qtchar.cartan"].InvCartanSeries
        a_depth, entry_coeff = algebra.a_depth, series.entry_coeff

        def traced_a_depth(alg, m, base):
            d = a_depth(alg, m, base)
            if d is not None and d > self.depth_max:
                self.depth_max = d
            return d

        def counted_entry_coeff(s, a, b, r):
            self.entry_calls += 1
            return entry_coeff(s, a, b, r)

        algebra.a_depth = traced_a_depth
        series.entry_coeff = counted_entry_coeff

    def _span(self, name, fn, count):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, start, end, parent, stack = (
            self.span_name, self.start, self.end, self.parent, self.stack)

        def wrapper(*args, **kwargs):
            k = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(k)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[k] = clock()
                stack.pop()
            if count is not None:
                count(self, args, out)
            return out

        return wrapper

    def call(self, name: str, fn):
        """Run fn() under a span of the bench's own (one job)."""
        return self._span(name, fn, None)()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        n = len(self.start)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        self_ns = {name: 0 for name in self.names}
        calls = {name: 0 for name in self.names}
        for k in range(n):
            name = self.names[self.span_name[k]]
            self_ns[name] += dur[k] - child[k]
            calls[name] += 1
        s = {name: v / 1e9 for name, v in self_ns.items()}
        return {
            "cartan.import_s": self.import_s.get("qtchar.cartan", 0.0),
            "cartan.series_init_s": s["cartan.series_init"],
            "cartan.entry_coeff.calls": self.entry_calls,
            "algebra.mul.self_s": s["algebra.mul"],
            "algebra.mul.calls": calls["algebra.mul"],
            "algebra.mul.term_pairs": self.term_pairs,
            "algebra.factor_over_A.self_s": s["algebra.factor_over_A"],
            "algebra.factor_over_A.calls": calls["algebra.factor_over_A"],
            "algebra.a_monomial_expand.self_s": s["algebra.a_monomial_expand"],
            "algebra.a_monomial_expand.calls": calls["algebra.a_monomial_expand"],
            "algebra.a_depth.max": self.depth_max,
            "screening.f_it.self_s": s["screening.f_it"],
            "screening.f_it.calls": calls["screening.f_it"],
            "screening.f_it.distinct": len(self.fit_keys),
            "screening.f_it.reuse": _reuse(calls["screening.f_it"], len(self.fit_keys)),
            "sl2.ft_sl2.self_s": s["sl2.ft_sl2"],
            "sl2.ft_sl2.calls": calls["sl2.ft_sl2"],
            "sl2.ft_sl2.distinct": len(self.ft_keys),
            "characters.t_algorithm.self_s": s["characters.t_algorithm"],
            "characters.monomials": self.monomials,
            "characters.chi_qt_inverse.self_s": s["characters.chi_qt_inverse"],
            "characters.e_t.self_s": s["characters.e_t"],
            "characters.lt_and_kl.self_s": s["characters.lt_and_kl"],
            "grammar.serialize_element.self_s": s["grammar.serialize_element"],
        }

    def write(self, path: str):
        """One line per span: name, start ns, end ns, parent line (-1: none)."""
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(len(self.start)):
                fh.write(f"{self.names[self.span_name[k]]}\t{self.start[k]}\t"
                         f"{self.end[k]}\t{self.parent[k]}\n")


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    while "." in attr:
        head, attr = attr.split(".", 1)
        owner = getattr(owner, head)
    return owner, attr


def _reuse(calls: int, distinct: int) -> float:
    return 1 - distinct / calls if calls else 0.0


def _count_mul(tr, args, out):
    # exact for the two-factor calls the library makes
    sizes = [len(e) for e in args[1:]]
    tr.term_pairs += sum(a * b for a, b in zip(sizes, sizes[1:]))


def _count_fit(tr, args, out):
    alg, i, m = args
    tr.fit_keys.add((id(alg), i, m))


def _count_ft(tr, args, out):
    tr.ft_keys.add(args[1])


def _count_tchar(tr, args, out):
    tr.monomials += len(out[0] if isinstance(out, tuple) else out)


_COUNTERS = {
    "algebra.mul": _count_mul,
    "screening.f_it": _count_fit,
    "sl2.ft_sl2": _count_ft,
    "characters.t_algorithm": _count_tchar,
}
