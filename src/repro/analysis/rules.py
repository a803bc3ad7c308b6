"""The rule catalog: docs/ARCHITECTURE.md sections as AST checks.

Each rule mechanizes one section of the architecture book (the mapping
is tabulated in docs/LINT.md). Rules are deliberately syntactic — they
pattern-match the idioms this codebase actually uses, not arbitrary
Python — so a finding is near-certainly real, and the escape hatch for
the rare deliberate exception is a justified
``# repro: allow[rule-id] -- why`` pragma rather than a looser rule.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, List

from . import layers
from .registry import Finding, Rule, register, rule_ids
from .visitor import FileContext

#: Classes defined by ``repro/errors.py`` — the taxonomy the api tier
#: must speak. The runner re-derives this from the linted tree's own
#: ``errors.py`` when it sees one (so the rule tracks new error types
#: automatically); this frozen copy keeps fixture runs and partial
#: trees honest.
DEFAULT_ERROR_NAMES = frozenset({
    "KSpotError", "ConfigurationError", "QueryError", "LexError",
    "ParseError", "ValidationError", "PlanError", "SessionError",
    "UnknownSessionError", "SubmissionError", "TopologyError",
    "RoutingError", "StorageError", "ProtocolError", "CertificationError",
    "ScenarioError",
})

_SUITE_PATTERN = re.compile(r"tests/test_\w+\.py")
_ORACLE_WORDS = ("oracle", "reference_path")


def _is_name(node: ast.AST, *names: str) -> bool:
    return isinstance(node, ast.Name) and node.id in names


@register
class RngDiscipline(Rule):
    id = "rng-discipline"
    summary = "no global random.* / numpy.random streams; random.seed banned"
    rationale = (
        "Determinism is the simulator's contract: every draw comes from "
        "a purpose-specific random.Random seeded from the scenario, or "
        "from the counter-based cell-hash helpers. The module-level "
        "random.* functions share one hidden global stream, so any call "
        "entangles unrelated subsystems and breaks replay "
        "(ARCHITECTURE.md 'Seeds and RNG streams').")
    node_types = (ast.Attribute, ast.ImportFrom)

    _ALLOWED_ATTRS = frozenset({"Random"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Attribute):
            if _is_name(node.value, "random") \
                    and node.attr not in self._ALLOWED_ATTRS:
                yield self.finding(
                    ctx, node,
                    f"random.{node.attr} uses the hidden global stream; "
                    "derive a random.Random from the scenario seed (one "
                    "stream per purpose) or use the cell-hash helpers")
            elif node.attr == "random" and _is_name(node.value, "np", "numpy"):
                yield self.finding(
                    ctx, node,
                    "numpy.random draws from global state the equivalence "
                    "proofs cannot pin; use random.Random streams or "
                    "columnar.hash01_column")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == "random":
                banned = [alias.name for alias in node.names
                          if alias.name not in self._ALLOWED_ATTRS]
                if banned:
                    yield self.finding(
                        ctx, node,
                        f"importing {', '.join(banned)} from random pulls "
                        "in the global stream; import random and build "
                        "random.Random instances instead")
            elif module == "numpy.random" or module.startswith("numpy.random."):
                yield self.finding(
                    ctx, node, "numpy.random is banned; see rng-discipline")
            elif module == "numpy":
                if any(alias.name == "random" for alias in node.names):
                    yield self.finding(
                        ctx, node, "numpy.random is banned; see rng-discipline")


@register
class NoWallClock(Rule):
    id = "no-wall-clock"
    summary = "epochs are the only clock; wall time allowed in perf.py only"
    rationale = (
        "Replay requires that nothing observable depends on when a run "
        "happens. Wall-clock reads are measurement-harness territory "
        "(perf.py, benchmarks/), never simulation or engine logic "
        "(ARCHITECTURE.md 'Seeds and RNG streams', rule 4).")
    node_types = (ast.Attribute, ast.ImportFrom)
    exempt = ("*perf.py", "benchmarks/*", "*/benchmarks/*")

    _TIME_ATTRS = frozenset({
        "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
        "perf_counter_ns", "process_time", "process_time_ns", "clock"})
    _DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if isinstance(node, ast.Attribute):
            if _is_name(node.value, "time") and node.attr in self._TIME_ATTRS:
                yield self.finding(
                    ctx, node,
                    f"time.{node.attr} reads the wall clock; epochs are "
                    "the only clock outside perf.py and benchmarks/")
            elif node.attr in self._DATETIME_ATTRS:
                value = node.value
                from_module = isinstance(value, ast.Attribute) \
                    and value.attr in ("datetime", "date") \
                    and _is_name(value.value, "datetime")
                if _is_name(value, "datetime", "date") or from_module:
                    yield self.finding(
                        ctx, node,
                        f"datetime .{node.attr} reads the wall clock; "
                        "epochs are the only clock outside perf.py and "
                        "benchmarks/")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "") == "time":
                banned = [alias.name for alias in node.names
                          if alias.name in self._TIME_ATTRS]
                if banned:
                    yield self.finding(
                        ctx, node,
                        f"importing {', '.join(banned)} from time; wall "
                        "clocks live in perf.py and benchmarks/ only")


@register
class LayerDag(Rule):
    id = "layer-dag"
    summary = "imports must follow the declared five-layer DAG"
    rationale = (
        "Each layer talks only to the ones below it (ARCHITECTURE.md "
        "'The five layers'). The allowed edges are declared in "
        "analysis/layers.py; an undeclared upward or sideways import "
        "either belongs in that config (with the book updated) or is a "
        "bug about to become a cycle.")
    node_types = (ast.Import, ast.ImportFrom)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        source = ctx.layer
        if ctx.module_parts is not None \
                and source not in layers.ALLOWED_IMPORTS:
            yield Finding(
                self.id, ctx.display, 1, 0,
                f"package {source!r} is not declared in the layer config "
                "(repro/analysis/layers.py); add it to ALLOWED_IMPORTS "
                "and to the map in docs/ARCHITECTURE.md")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if ctx.module_parts is None:
            return
        source = ctx.layer
        allowed = layers.ALLOWED_IMPORTS.get(source)
        if allowed is None or node.lineno in ctx.type_checking_lines:
            return  # undeclared source already reported; typing-only is free
        for target, dotted in layers.resolve_import_targets(
                node, ctx.module_parts):
            if target == source or target.startswith("_"):
                continue
            if target not in layers.ALLOWED_IMPORTS:
                yield self.finding(
                    ctx, node,
                    f"import of {dotted} targets undeclared package "
                    f"{target!r}; declare it in analysis/layers.py")
            elif target not in allowed:
                yield self.finding(
                    ctx, node,
                    f"{source} -> {target} is not a declared edge of the "
                    f"import DAG ({dotted}); layers may only import "
                    "downward — see docs/ARCHITECTURE.md and "
                    "repro/analysis/layers.py")


@register
class ImportHygiene(Rule):
    id = "import-hygiene"
    summary = "importing a module must not run side-effectful calls"
    rationale = (
        "Workers, shards and the CLI import lazily and in different "
        "orders; module import must be inert (the static twin of "
        "test_parallel.py's runtime import audit). Module-level calls "
        "run at import time on every path that touches the module.")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        yield from self._scan(ctx.tree.body, ctx)

    def _scan(self, stmts, ctx: FileContext) -> Iterable[Finding]:
        for stmt in stmts:
            if isinstance(stmt, ast.Expr):
                if isinstance(stmt.value, ast.Call):
                    yield self.finding(
                        ctx, stmt,
                        "module-level call runs at import time; move it "
                        "into a function or guard it with "
                        "if __name__ == \"__main__\"")
            elif isinstance(stmt, ast.If):
                if self._is_main_guard(stmt.test):
                    continue
                yield from self._scan(stmt.body, ctx)
                yield from self._scan(stmt.orelse, ctx)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._scan(block, ctx)
                for handler in stmt.handlers:
                    yield from self._scan(handler.body, ctx)

    @staticmethod
    def _is_main_guard(test: ast.AST) -> bool:
        if not isinstance(test, ast.Compare) or len(test.ops) != 1 \
                or not isinstance(test.ops[0], ast.Eq):
            return False
        sides = (test.left, test.comparators[0])
        has_name = any(_is_name(side, "__name__") for side in sides)
        has_main = any(isinstance(side, ast.Constant)
                       and side.value == "__main__" for side in sides)
        return has_name and has_main


@register
class SwitchAndProve(Rule):
    id = "switch-and-prove"
    summary = "switch-branching modules must name their oracle and suite"
    rationale = (
        "Every optimization ships behind a switch with its unoptimized "
        "oracle in-tree and a byte-equivalence suite (ARCHITECTURE.md "
        "'Switch-and-prove discipline'). A module that branches on "
        "the execution path — a deployment's .hot attribute, or the "
        "bare hotpath._enabled default a network reads when it is "
        "built — must say, in its docstring, which oracle and which "
        "tests/test_*.py suite hold it to that.")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not self._reads_switch(node):
            return
        has_suite = bool(_SUITE_PATTERN.search(ctx.docstring))
        has_oracle = any(word in ctx.docstring for word in _ORACLE_WORDS)
        if has_suite and has_oracle:
            return
        missing = []
        if not has_suite:
            missing.append("an equivalence suite (tests/test_*.py)")
        if not has_oracle:
            missing.append("its oracle (reference_path)")
        yield self.finding(
            ctx, node,
            f"{node.name} branches on the execution path but the "
            f"module docstring does not name "
            f"{' or '.join(missing)}; document the proof obligation "
            "(see docs/ARCHITECTURE.md, switch-and-prove)")

    @staticmethod
    def _reads_switch(func: ast.AST) -> bool:
        """True when ``func`` loads an attribute named ``hot`` (a
        deployment's path) or reads ``hotpath._enabled`` (the default
        a network reads when it is built)."""
        return any(
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and (node.attr == "hot"
                 or (node.attr == "_enabled"
                     and _is_name(node.value, "hotpath")))
            for node in ast.walk(func))


@register
class ErrorTaxonomy(Rule):
    id = "error-taxonomy"
    summary = "api/ and cli.py raise only repro.errors types"
    rationale = (
        "The facade's contract is 'catch KSpotError and you have caught "
        "everything'; a ValueError escaping api/ or the CLI breaks "
        "every caller that honored it. New failure modes get a class "
        "in errors.py, not a builtin.")
    node_types = (ast.Raise,)
    paths = ("*/api/*", "*cli.py")

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        exc = node.exc
        if exc is None:
            return  # bare re-raise
        allowed = DEFAULT_ERROR_NAMES | ctx.error_names
        name = None
        target = exc.func if isinstance(exc, ast.Call) else exc
        if isinstance(target, ast.Name):
            if target.id in ctx.handler_aliases:
                return  # re-raising a caught exception object
            name = target.id
        elif isinstance(target, ast.Attribute):
            name = target.attr
        if name is not None and name not in allowed:
            yield self.finding(
                ctx, node,
                f"raises {name}, which is not a repro.errors type; the "
                "api tier's contract is that every failure derives from "
                "KSpotError (add a class to errors.py if none fits)")


@register
class SetIterationOrder(Rule):
    id = "set-iteration-order"
    summary = "never materialize a set into ordered output unsorted"
    rationale = (
        "Set iteration order varies with insertion history and hash "
        "seeding, so list()/tuple()/join()/enumerate() over a set "
        "smuggles nondeterminism into answers, wire order and reports. "
        "Deterministic code sorts first (the tree's idiom: "
        "sorted(..., key=str) for mixed-type groups).")
    node_types = (ast.Call,)

    _MATERIALIZERS = frozenset({"list", "tuple", "enumerate"})

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not node.args:
            return
        func = node.func
        ordered_sink = (isinstance(func, ast.Name)
                        and func.id in self._MATERIALIZERS) \
            or (isinstance(func, ast.Attribute) and func.attr == "join")
        if ordered_sink and self._is_set_expr(node.args[0]):
            sink = func.id if isinstance(func, ast.Name) else "join"
            yield self.finding(
                ctx, node,
                f"{sink}() over a set materializes nondeterministic "
                "iteration order; wrap the set in sorted(...) first")

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Name) \
            and node.func.id in ("set", "frozenset")


@register
class HotLoopAllocation(Rule):
    id = "hot-loop-allocation"
    summary = "# repro: hot functions avoid per-iteration allocation idioms"
    rationale = (
        "The perf kernels exist because allocation in the epoch loop "
        "dominates at N=1000. Functions marked '# repro: hot' are the "
        "measured hot path: key=lambda sorts (one closure call per "
        "element, also through a name bound to the lambda) and "
        "comprehensions inside loops (one fresh container per "
        "iteration) belong outside them — precompute tuple keys and "
        "reuse buffers, as delta.py and the fused passes do.")
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.pragmas.is_hot(node.lineno):
            return ()
        findings: List[Finding] = []
        self._scan_block(node.body, 0, ctx, findings)
        lambdas = {target.id for sub in ast.walk(node)
                   if isinstance(sub, ast.Assign)
                   and isinstance(sub.value, ast.Lambda)
                   for target in sub.targets if isinstance(target, ast.Name)}
        findings.extend(
            self.finding(ctx, sub, f"key={kw.value.id} is bound to a lambda "
                         "in this hot function, so the sort calls a "
                         "closure per element; precompute a tuple sort key")
            for sub in ast.walk(node) if self._is_sort(sub)
            for kw in sub.keywords if kw.arg == "key"
            and isinstance(kw.value, ast.Name) and kw.value.id in lambdas)
        return findings

    @staticmethod
    def _is_sort(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and (
            _is_name(node.func, "sorted") or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "sort"))

    def _scan_block(self, stmts, loop_depth: int, ctx: FileContext,
                    out: List[Finding]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scopes opt in with their own marker
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._scan_expr(stmt.iter, loop_depth, ctx, out)
                self._scan_block(stmt.body, loop_depth + 1, ctx, out)
                self._scan_block(stmt.orelse, loop_depth + 1, ctx, out)
            elif isinstance(stmt, ast.While):
                self._scan_expr(stmt.test, loop_depth, ctx, out)
                self._scan_block(stmt.body, loop_depth + 1, ctx, out)
                self._scan_block(stmt.orelse, loop_depth + 1, ctx, out)
            elif isinstance(stmt, ast.If):
                self._scan_expr(stmt.test, loop_depth, ctx, out)
                self._scan_block(stmt.body, loop_depth, ctx, out)
                self._scan_block(stmt.orelse, loop_depth, ctx, out)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    self._scan_expr(item.context_expr, loop_depth, ctx, out)
                self._scan_block(stmt.body, loop_depth, ctx, out)
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    self._scan_block(block, loop_depth, ctx, out)
                for handler in stmt.handlers:
                    self._scan_block(handler.body, loop_depth, ctx, out)
            else:
                self._scan_expr(stmt, loop_depth, ctx, out)

    def _scan_expr(self, node: ast.AST, loop_depth: int, ctx: FileContext,
                   out: List[Finding]) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                if self._is_sort(sub) and any(
                        kw.arg == "key" and isinstance(kw.value, ast.Lambda)
                        for kw in sub.keywords):
                    out.append(self.finding(
                        ctx, sub,
                        "key=lambda in a hot function calls a closure "
                        "per element; precompute a tuple sort key "
                        "instead (delta.py's rank-key idiom)"))
            elif loop_depth > 0 and isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.DictComp,
                          ast.GeneratorExp)):
                out.append(self.finding(
                    ctx, sub,
                    "comprehension inside a loop of a hot function "
                    "allocates a fresh container per iteration; hoist "
                    "it or mutate a reused buffer"))


@register
class PragmaDiscipline(Rule):
    id = "pragma-discipline"
    summary = "every allow[...] pragma names known rules and a justification"
    rationale = (
        "Suppressions are the audit trail of deliberate exceptions; an "
        "allow without a '-- justification' (or naming a rule that "
        "does not exist) suppresses nothing and is itself a finding, "
        "so the trail can never silently rot.")

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        known = rule_ids()
        for allow in ctx.pragmas.allows:
            if not allow.rule_ids:
                yield Finding(
                    self.id, ctx.display, allow.line, 0,
                    "allow[] pragma names no rule ids")
                continue
            if not allow.justified:
                yield Finding(
                    self.id, ctx.display, allow.line, 0,
                    "allow[" + ",".join(allow.rule_ids) + "] has no "
                    "'-- justification'; unjustified pragmas suppress "
                    "nothing")
            for rid in allow.rule_ids:
                if rid not in known and rid != "parse-error":
                    yield Finding(
                        self.id, ctx.display, allow.line, 0,
                        f"allow pragma names unknown rule id {rid!r} "
                        "(see repro lint --list-rules)")
