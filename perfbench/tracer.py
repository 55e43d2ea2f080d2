"""Per-layer tracing, installed from outside the package under test.

The tracer wraps public functions of ``opalg`` and rebinds every module
global that refers to the original, because several modules import the
names they call directly.  Each call records one span (name, start, end,
parent) in flat arrays; per-layer statistics are computed from the spans
after the run, and the spans are written out at the end.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

# (metric prefix, module, attribute): module-level functions to wrap.
FUNCTIONS = (
    ("brackets.symmetrized_poisson_bracket", "brackets", "symmetrized_poisson_bracket"),
    ("brackets.check_leibniz", "brackets", "check_leibniz"),
    ("brackets.check_von_neumann_equivalence", "brackets", "check_von_neumann_equivalence"),
    ("brackets.substitute_drho", "brackets", "substitute_drho"),
    ("weyl.weyl_product", "weyl", "weyl_product"),
    ("weyl.weyl_derivative", "weyl", "weyl_derivative"),
    ("weyl.expand", "weyl", "expand"),
    ("weyl.expand_polynomial", "weyl", "expand_polynomial"),
    ("weyl.symmetrize", "weyl", "symmetrize"),
    ("core.normal_order", "core", "normal_order"),
    ("core.multiply", "core", "multiply"),
    ("oracle.apply_operator", "oracle", "apply_operator"),
    ("oracle.oracle_equal", "oracle", "oracle_equal"),
    ("parser.parse", "parser", "parse"),
    ("parser.evaluate", "parser", "evaluate"),
    ("printing.render_text", "printing", "render_text"),
    ("printing.render_json", "printing", "render_json"),
)
# (metric prefix, method name) on HbarScalar.
SCALAR_METHODS = (("scalars.mul", "__mul__"), ("scalars.add", "__add__"))
TERMS = "terms.construct"
# (metric prefix, module, attribute) of memo caches, read via cache_info().
CACHES = (
    ("brackets.monomial_bracket_cache", "brackets", "_monomial_bracket"),
    ("core.normal_form_cache", "core", "_word_normal_form"),
    ("weyl.expand_cache", "weyl", "expand"),
)
SUITES = (
    "eq6", "eq8", "eq10", "eq11", "eq12", "eq14", "eq18_19",
    "eq20", "eq21", "jacobi", "hermiticity", "obstruction", "oracle",
)
ARRANGEMENTS = "combinatorics.multiset_permutations.arrangements"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for prefix in [p for p, _, _ in FUNCTIONS] + [p for p, _ in SCALAR_METHODS] + [TERMS]:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
        units[f"{prefix}.total_s"] = "s"
    units["terms.pairs_in"] = "count"
    units["terms.terms_out"] = "count"
    for prefix, _, _ in CACHES:
        for stat in ("hits", "misses", "size"):
            units[f"{prefix}.{stat}"] = "count"
    units[ARRANGEMENTS] = "count"
    for suite in SUITES:
        units[f"suites.{suite}.total_s"] = "s"
    return units


def _rebind(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "opalg" or name.startswith("opalg."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)


class Tracer:
    """Spans in flat arrays: name id, parent span index, start, end, and
    whether the span is the outermost open one of its name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_outer = array("b")
        self.counters: dict[str, int] = {}
        self._caches: dict[str, object] = {}
        self._stack: list[int] = []
        self.span_count = 0
        self.frozen: dict[str, float] = {}
        self._depth: list[int] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_outer = self.span_start, self.span_end, self.span_outer
        stack, depth = self._stack, self._depth

        def traced(*args, **kwargs):
            index = len(span_start)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_outer.append(depth[nid] == 0)
            span_end.append(0.0)
            stack.append(index)
            depth[nid] += 1
            span_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = perf_counter()
                depth[nid] -= 1
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every listed layer of the imported ``opalg`` package."""
        import opalg  # noqa: F401  (loads every submodule)

        modules = {name.split(".")[-1]: m for name, m in sys.modules.items() if name.startswith("opalg.")}
        for prefix, module, attr in CACHES:
            target = getattr(modules.get(module), attr, None)
            if hasattr(target, "cache_info"):
                self._caches[prefix] = target
        for prefix, module, attr in FUNCTIONS:
            original = getattr(modules.get(module), attr, None)
            if original is not None:
                _rebind(original, self.wrap(original, prefix))

        scalar = modules["scalars"].HbarScalar
        for prefix, method in SCALAR_METHODS:
            setattr(scalar, method, self.wrap(getattr(scalar, method), prefix))

        self.counters.update({"terms.pairs_in": 0, "terms.terms_out": 0, ARRANGEMENTS: 0})
        counters = self.counters
        graded = modules["terms"].GradedTerms
        construct = self.wrap(graded.__init__, TERMS)

        def counted(pairs):
            for pair in pairs:
                counters["terms.pairs_in"] += 1
                yield pair

        def init(self_, pairs=()):
            construct(self_, counted(pairs))
            counters["terms.terms_out"] += len(self_)

        graded.__init__ = init

        permutations = getattr(modules["combinatorics"], "multiset_permutations", None)
        if permutations is not None:
            def arrangements(items):
                for item in permutations(items):
                    counters[ARRANGEMENTS] += 1
                    yield item

            _rebind(permutations, arrangements)

        suites = getattr(modules["suites"], "_SUITES", {})
        for suite in list(suites):
            suites[suite] = self.wrap(suites[suite], f"suites.{suite}")

    def freeze(self) -> None:
        """End of the timed region: later calls, such as output checks, are
        left out of the statistics and of the written spans."""
        self.span_count = len(self.span_start)
        self.frozen = self.metrics()

    def metrics(self) -> dict[str, float]:
        """Per-layer statistics computed from the recorded spans.

        A span's self time is its duration minus the durations of its child
        spans; a name's total time counts only spans with no enclosing span
        of the same name, so recursion is not counted twice.
        """
        n_names = len(self.names)
        calls = [0] * n_names
        self_s = [0.0] * n_names
        total_s = [0.0] * n_names
        n_spans = len(self.span_start)
        child = [0.0] * n_spans
        for i in range(n_spans - 1, -1, -1):
            duration = self.span_end[i] - self.span_start[i]
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += duration - child[i]
            if self.span_outer[i]:
                total_s[nid] += duration
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += duration
        out: dict[str, float] = {name: 0 for name in metric_units()}
        for nid, name in enumerate(self.names):
            if name.startswith("suites."):
                out[f"{name}.total_s"] = total_s[nid]
            else:
                out[f"{name}.calls"] = calls[nid]
                out[f"{name}.self_s"] = self_s[nid]
                out[f"{name}.total_s"] = total_s[nid]
        out.update(self.counters)
        for prefix, cache in self._caches.items():
            info = cache.cache_info()
            out[f"{prefix}.hits"] = info.hits
            out[f"{prefix}.misses"] = info.misses
            out[f"{prefix}.size"] = info.currsize
        return out

    def present_caches(self) -> list[str]:
        return sorted(self._caches)

    def write_spans(self, path: str) -> None:
        """One JSON header line, then the five span arrays back to back."""
        header = {
            "names": self.names,
            "count": self.span_count,
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"], ["outer", "b"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end, self.span_outer):
                arr[: self.span_count].tofile(fh)


def read_spans(path: str) -> tuple[list[str], dict[str, array]]:
    """Load a file written by :meth:`Tracer.write_spans`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[name] = arr
    return header["names"], arrays
