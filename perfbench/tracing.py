"""Spans and counts around algeff's layers, recorded from outside.

``Tracer.install`` replaces each traced public function of algeff with a
wrapper, in every algeff module namespace that holds it, so calls made
through ``algeff.cli`` and calls made inside a module both go through the
wrapper.  A wrapper opens a span unless a span of the same layer is
already open: recursive and same-layer calls belong to the outer span.
Spans stay in memory; ``write`` saves them once the run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
import tracemalloc
from collections import Counter
from time import perf_counter

SPAN_LAYERS = (
    "cli", "parser", "lang", "interp.eval", "interp.handle", "interp.check_handler",
    "free.normalize", "free.search", "comodels.run", "comodels.validate",
    "models.validate", "printer",
)

PER_LAYER = (
    "cli.calls", "cli.self_s",
    "parser.calls", "parser.self_s", "parser.input_bytes",
    "lang.calls", "lang.self_s",
    "interp.eval.calls", "interp.eval.self_s", "interp.eval.result_nodes",
    "interp.eval.peak_alloc_mib", "interp.eval.visited_share",
    "interp.handle.calls", "interp.handle.self_s",
    "interp.check_handler.calls", "interp.check_handler.self_s",
    "interp.check_handler.instances",
    "terms.eq_side_builds",
    "free.normalize.calls", "free.normalize.self_s",
    "free.search.calls", "free.search.self_s", "free.search.equal",
    "free.search.distinct", "free.search.unknown", "free.search.decided_share",
    "free.search.input_nodes",
    "comodels.run.calls", "comodels.run.self_s", "comodels.coop_calls",
    "comodels.validate.calls", "comodels.validate.self_s",
    "models.validate.calls", "models.validate.self_s", "models.cases",
    "printer.calls", "printer.self_s", "printer.output_bytes",
)


def tree_nodes(tree) -> int:
    """Node count of an algeff tree, without recursion."""
    count, stack = 0, [tree]
    while stack:
        t = stack.pop()
        count += 1
        kont = getattr(t, "kont", None)
        if kont:
            stack.extend(kont)
    return count


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent span index or -1]
        self.stack = []
        self.open = Counter()
        self.counts = Counter()
        self.peak_alloc = 0
        self.probe_alloc = False
        self.suspended = False
        self._in_compare = False

    # -- wrappers -------------------------------------------------------------

    def span(self, layer, fn, after=None):
        """Wrap ``fn`` in a span of ``layer``.  ``after(result, args)`` runs
        once the span has closed and may replace the result; it gets a span
        of its own, so the benchmark's bookkeeping is not charged to the
        enclosing layer's self time."""
        spans, stack, open_ = self.spans, self.stack, self.open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.suspended or open_[layer]:
                return fn(*args, **kwargs)
            record = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            open_[layer] += 1
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                open_[layer] -= 1
            if after is None:
                return result
            bookkeeping = ["tracing", perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(bookkeeping)
            try:
                return after(result, args)
            finally:
                bookkeeping[2] = perf_counter()

        return traced

    def _parser_after(self, result, args):
        self.counts["parser.input_bytes"] += len(args[0].encode("utf-8"))
        return result

    def _printer_after(self, result, args):
        self.counts["printer.output_bytes"] += len(result.encode("utf-8"))
        return result

    def _theory_after(self, result, args):
        return self._counting_theory(self._parser_after(result, args))

    def _counting_theory(self, theory):
        from algeff.terms import Equation, Theory

        def counted(side):
            def build(p):
                self.counts["terms.eq_side_builds"] += 1
                return side(p)
            return build

        eqs = tuple(
            Equation(e.name, e.param_universe, e.context, counted(e.lhs), counted(e.rhs))
            for e in theory.eqs
        )
        return Theory(theory.name, theory.ops, eqs, theory.renames)

    def _comodel_after(self, result, args):
        self._parser_after(result, args)
        for name, coop in list(result.coops.items()):
            result.coops[name] = self._counting_coop(coop)
        return result

    def _counting_coop(self, coop):
        def counted(p, w):
            self.counts["comodels.coop_calls"] += 1
            if not self.open["comodels.validate"]:
                self.counts["coop_calls_in_runs"] += 1
            return coop(p, w)
        return counted

    def _eval_after(self, original):
        def after(result, args):
            self.counts["interp.eval.result_nodes"] += tree_nodes(result.tree)
            if self.probe_alloc:
                # replay once outside the layer's span, so the allocation
                # hook does not slow the timed call
                self.suspended = True
                tracemalloc.start()
                try:
                    original(*args)
                finally:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                    self.suspended = False
            return result
        return after

    def _search_after(self, result, args):
        self.counts[f"free.search.{result.value}"] += 1
        self.counts["free.search.input_nodes"] += tree_nodes(args[1]) + tree_nodes(args[2])
        return result

    def _counting_compare(self, compare):
        @functools.wraps(compare)
        def counted(*args, **kwargs):
            if self._in_compare or not self.open["interp.check_handler"]:
                return compare(*args, **kwargs)
            self.counts["interp.check_handler.instances"] += 1
            self._in_compare = True
            try:
                return compare(*args, **kwargs)
            finally:
                self._in_compare = False
        return counted

    def _counting_cases(self, cases):
        @functools.wraps(cases)
        def counted(*args, **kwargs):
            for case in cases(*args, **kwargs):
                self.counts["models.cases"] += 1
                yield case
        return counted

    # -- installation ---------------------------------------------------------

    def install(self):
        import algeff.cli
        import algeff.comodels as comodels
        import algeff.free as free
        import algeff.interp as interp
        import algeff.lang as lang
        import algeff.models as models
        import algeff.parser as parser
        import algeff.printer as printer

        plan = [(algeff.cli.main, self.span("cli", algeff.cli.main))]
        for name in ("parse_program", "parse_value_text", "parse_model_file", "parse_element"):
            fn = getattr(parser, name)
            plan.append((fn, self.span("parser", fn, self._parser_after)))
        plan.append((parser.parse_theory_file,
                     self.span("parser", parser.parse_theory_file, self._theory_after)))
        plan.append((parser.parse_comodel_file,
                     self.span("parser", parser.parse_comodel_file, self._comodel_after)))
        for fn in (lang.typecheck_comp, lang.typecheck_value):
            plan.append((fn, self.span("lang", fn)))
        plan.append((interp.run_program, self.span(
            "interp.eval", interp.run_program, self._eval_after(interp.run_program))))
        plan.append((interp.handle, self.span("interp.handle", interp.handle)))
        plan.append((interp.check_handler_equations,
                     self.span("interp.check_handler", interp.check_handler_equations)))
        plan.append((interp.compare_trees, self._counting_compare(interp.compare_trees)))
        plan.append((free.normalize, self.span("free.normalize", free.normalize)))
        plan.append((free.tree_equal_modulo,
                     self.span("free.search", free.tree_equal_modulo, self._search_after)))
        plan.append((comodels.cointerpret_tree, self.span("comodels.run", comodels.cointerpret_tree)))
        plan.append((comodels.validate_comodel,
                     self.span("comodels.validate", comodels.validate_comodel)))
        plan.append((models.validate_model, self.span("models.validate", models.validate_model)))
        plan.append((models.iter_equation_cases, self._counting_cases(models.iter_equation_cases)))
        for name, fn in list(vars(printer).items()):
            if name.startswith("render_") and callable(fn):
                plan.append((fn, self.span("printer", fn, self._printer_after)))

        modules = [m for n, m in sys.modules.items() if n == "algeff" or n.startswith("algeff.")]
        for original, wrapper in plan:
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    # -- results ----------------------------------------------------------------

    def self_times(self) -> Counter:
        spans = self.spans
        covered = [0.0] * len(spans)
        for layer, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = Counter()
        for (layer, start, end, _), child in zip(spans, covered):
            out[layer] += end - start - child
        return out

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round; shares and the allocation peak are
        over the whole run."""
        calls = Counter(record[0] for record in self.spans)
        selfs = self.self_times()
        c = self.counts
        out = {}
        for layer in SPAN_LAYERS:
            out[f"{layer}.calls"] = calls[layer] / rounds
            out[f"{layer}.self_s"] = selfs[layer] / rounds
        for key in ("parser.input_bytes", "interp.eval.result_nodes",
                    "interp.check_handler.instances", "terms.eq_side_builds",
                    "free.search.equal", "free.search.distinct", "free.search.unknown",
                    "free.search.input_nodes", "comodels.coop_calls", "models.cases",
                    "printer.output_bytes"):
            out[key] = c[key] / rounds
        out["interp.eval.peak_alloc_mib"] = self.peak_alloc / 2**20
        nodes = c["interp.eval.result_nodes"]
        out["interp.eval.visited_share"] = c["coop_calls_in_runs"] / nodes if nodes else 0.0
        searches = calls["free.search"]
        decided = c["free.search.equal"] + c["free.search.distinct"]
        out["free.search.decided_share"] = decided / searches if searches else 0.0
        return {key: out[key] for key in PER_LAYER}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["layer", "start_s", "end_s", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, f)
