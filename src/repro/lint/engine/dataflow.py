"""Forward taint dataflow: nondeterminism sources to ledger sinks.

The determinism rules' v1 form flagged nondeterminism *where the call
textually appears*.  That is right for hard bans (wall clocks, global
RNG) but wrong for the sources that are only a problem when they reach
the accounting: iterating a ``set`` is fine for membership bookkeeping
and silently result-corrupting when the iteration order decides what
enters a ledger, a golden, or a float reduction.

This module implements a small forward taint framework over the
resolved call graph:

* **Sources** produce :class:`Taint` values — ``wall-clock`` (the
  ``time`` module's clock reads), ``rng`` (legacy ``np.random.*``, the
  ``random`` module, unseeded ``default_rng()``), and
  ``unordered-iter`` (iterating a ``set``/``frozenset``/``dict`` or a
  dict view; also float reductions like ``sum()`` over such an
  iteration, whose result depends on visit order).
* **Propagation** follows assignments (including tuple unpacking and
  augmented assigns), container writes, comprehensions, arithmetic, and
  *calls*: resolved project calls substitute the callee's return-taint
  summary (parameter markers map caller arguments into the callee),
  unresolved calls conservatively union their argument taints.
* **Sanitizers** strip the ``unordered-iter`` kind: ``sorted()``,
  ``np.sort`` / ``np.unique`` / ``np.argsort``, ``unique_sorted``,
  ``min`` / ``max``, and comparisons (membership tests are
  order-insensitive).
* **Sinks** are where the rules fire: the argument expressions of
  ledger charges (``parallel_for`` / ``sequential`` / ... /
  ``record_*``) and assignments through ``.metrics.``.

Summaries are computed to a fixpoint across the whole program, so a
source two calls away from its sink is still caught — the
interprocedural upgrade ISSUE 6 asks R003/R006 to stand on.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint import astutil

#: Taint kinds (plus internal ``param:<i>`` markers used in summaries).
WALL_CLOCK = "wall-clock"
RNG = "rng"
UNORDERED = "unordered-iter"

#: Call names (after alias expansion) that strip ``unordered-iter``.
_SANITIZERS = frozenset(
    {
        "sorted",
        "min",
        "max",
        "len",
        "numpy.sort",
        "numpy.unique",
        "numpy.argsort",
        "numpy.lexsort",
        "repro.primitives.unique_sorted",
        "repro.primitives.dedupe.unique_sorted",
    }
)

#: Builtin constructors that produce unordered containers.
_UNORDERED_CONSTRUCTORS = {"set": "set", "frozenset": "set", "dict": "dict"}

#: Reductions whose float result depends on operand order; they
#: *preserve* unordered taint (the float-reduction-order source).
_ORDER_SENSITIVE_REDUCTIONS = frozenset({"sum", "numpy.sum", "math.fsum"})

_MAX_TAINTS = 8  # per-expression cap; keeps worst-case cost bounded


@dataclass(frozen=True, order=True)
class Taint:
    """One nondeterminism source (or a parameter marker in summaries)."""

    kind: str
    origin_path: str = ""
    origin_line: int = 0
    note: str = ""

    @property
    def is_param(self) -> bool:
        return self.kind.startswith("param:")


@dataclass(frozen=True)
class SinkHit:
    """A tainted value reaching a ledger/metrics sink."""

    node: ast.AST
    sink: str
    taints: frozenset[Taint]


def _cap(taints: set[Taint]) -> frozenset[Taint]:
    if len(taints) <= _MAX_TAINTS:
        return frozenset(taints)
    return frozenset(sorted(taints)[:_MAX_TAINTS])


class TaintAnalysis:
    """Whole-program fixpoint plus per-function sink evaluation."""

    def __init__(self, program) -> None:
        self._program = program
        self._graph = program.callgraph
        #: qualname -> frozenset[Taint] flowing out of the return value.
        self.summaries: dict[str, frozenset[Taint]] = {}
        #: id(ast.Call) -> CallSite, for resolved-call substitution.
        self._sites = {
            id(site.call): site
            for sites in self._graph.calls.values()
            for site in sites
        }
        self._module_env: dict[str, tuple[set[str], set[str]]] = {}
        #: qualname -> parameter indices whose value reaches a sink
        #: inside the function (or transitively through further calls).
        self.sink_params: dict[str, frozenset[int]] = {}
        self._fixpoint()
        self._sink_param_fixpoint()

    def _time_env(self, module_name: str) -> tuple[set[str], set[str]]:
        env = self._module_env.get(module_name)
        if env is None:
            module = self._program.module_named(module_name)
            env = (
                astutil.time_aliases(module.tree)
                if module is not None
                else (set(), set())
            )
            self._module_env[module_name] = env
        return env

    def _fixpoint(self) -> None:
        functions = self._graph.functions
        for qualname in functions:
            self.summaries[qualname] = frozenset()
        for _ in range(8):
            changed = False
            for qualname, info in functions.items():
                walker = _FunctionWalker(self, info, collect_sinks=False)
                returns = walker.run()
                if returns != self.summaries[qualname]:
                    self.summaries[qualname] = returns
                    changed = True
            if not changed:
                break

    def _sink_param_fixpoint(self) -> None:
        """Which parameters flow into a sink, transitively.

        A parameter marker surviving into a sink's taint set means the
        caller's argument is what gets charged — so the *call site* is
        where a tainted argument should be reported.  The walker
        consults ``sink_params`` for resolved callees, which makes this
        a fixpoint over call chains of any depth.
        """
        functions = self._graph.functions
        for qualname in functions:
            self.sink_params[qualname] = frozenset()
        for _ in range(8):
            changed = False
            for qualname, info in functions.items():
                walker = _FunctionWalker(self, info, collect_sinks=True)
                walker.run()
                params = frozenset(
                    int(taint.kind.split(":", 1)[1])
                    for hit in walker.sinks
                    for taint in hit.taints
                    if taint.is_param
                )
                if params != self.sink_params[qualname]:
                    self.sink_params[qualname] = params
                    changed = True
            if not changed:
                break

    def sink_hits(self, info) -> list[SinkHit]:
        """Tainted-sink occurrences inside one function (final pass)."""
        walker = _FunctionWalker(self, info, collect_sinks=True)
        walker.run()
        return walker.sinks


class _FunctionWalker:
    """One abstract interpretation pass over a function body."""

    def __init__(
        self, analysis: TaintAnalysis, info, collect_sinks: bool
    ) -> None:
        self._analysis = analysis
        self._info = info
        self._collect = collect_sinks
        self._module = analysis._program.module_named(info.module)
        self._aliases = (
            self._module.import_aliases if self._module is not None else {}
        )
        self._path = self._module.path if self._module is not None else ""
        self._time_modules, self._clock_names = analysis._time_env(
            info.module
        )
        self.env: dict[str, frozenset[Taint]] = {}
        self.containers: dict[str, str] = {}
        self.sinks: list[SinkHit] = []
        self._seen_sinks: set[tuple[int, str]] = set()

    # -- driver --------------------------------------------------------
    def run(self) -> frozenset[Taint]:
        params = self._info.param_names
        for i, name in enumerate(params):
            self.env[name] = frozenset({Taint(kind=f"param:{i}")})
        returns: set[Taint] = set()
        # Two passes propagate loop-carried taint through simple cycles.
        for _ in range(2):
            self._returns: set[Taint] = set()
            self._block(self._info.node.body)
            returns = self._returns
        return _cap(returns)

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are analyzed as their own functions
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign):
            taints, container = self._expr(stmt.value)
            for target in stmt.targets:
                self._assign(target, taints, container)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            taints, container = self._expr(stmt.value)
            self._assign(stmt.target, taints, container)
        elif isinstance(stmt, ast.AugAssign):
            taints, _ = self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                merged = set(self.env.get(stmt.target.id, frozenset()))
                merged |= taints
                self.env[stmt.target.id] = _cap(merged)
            else:
                self._assign(stmt.target, taints, None)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                taints, _ = self._expr(stmt.value)
                self._returns |= taints
        elif isinstance(stmt, ast.For):
            self._for(stmt)
        elif isinstance(stmt, ast.While):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._expr(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                taints, container = self._expr(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, taints, container)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self._expr(stmt.value)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._expr(child)

    def _for(self, stmt: ast.For) -> None:
        taints, container = self._expr(stmt.iter)
        element = set(taints)
        if container in ("set", "dict"):
            element.add(
                Taint(
                    kind=UNORDERED,
                    origin_path=self._path,
                    origin_line=getattr(stmt.iter, "lineno", stmt.lineno),
                    note=f"iteration over a {container} has no defined order",
                )
            )
        self._assign(stmt.target, _cap(element), None)
        self._block(stmt.body)
        self._block(stmt.body)
        self._block(stmt.orelse)

    def _assign(
        self,
        target: ast.expr,
        taints: frozenset[Taint],
        container: str | None,
    ) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = taints
            if container is not None:
                self.containers[target.id] = container
            else:
                self.containers.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._assign(element, taints, None)
        elif isinstance(target, ast.Starred):
            self._assign(target.value, taints, None)
        elif isinstance(target, ast.Subscript):
            # Writing a tainted value into a container taints it; the
            # *index* being unordered does not (distinct-target writes
            # commute), but rng/clock-derived indices do.
            base = target.value
            index_taints, _ = self._expr(target.slice)
            value_taints = set(taints) | {
                taint
                for taint in index_taints
                if taint.kind in (WALL_CLOCK, RNG)
            }
            if isinstance(base, ast.Name) and value_taints:
                merged = set(self.env.get(base.id, frozenset()))
                merged |= value_taints
                self.env[base.id] = _cap(merged)
            if self._collect:
                self._check_metrics_sink(target, taints)
        elif isinstance(target, ast.Attribute):
            if self._collect:
                self._check_metrics_sink(target, taints)

    def _check_metrics_sink(
        self, target: ast.expr, taints: frozenset[Taint]
    ) -> None:
        dotted = astutil.dotted_name(
            target.value if isinstance(target, ast.Subscript) else target
        )
        if dotted is None or ".metrics." not in dotted + ".":
            return
        if taints:
            self._sink(target, f"assignment to '{dotted}'", taints)

    # -- expressions ---------------------------------------------------
    def _expr(self, node: ast.expr) -> tuple[frozenset[Taint], str | None]:
        method = getattr(
            self, f"_expr_{type(node).__name__.lower()}", None
        )
        if method is not None:
            return method(node)
        # Default: union over child expressions.
        taints: set[Taint] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                child_taints, _ = self._expr(child)
                taints |= child_taints
        return _cap(taints), None

    def _expr_constant(self, node: ast.Constant):
        return frozenset(), None

    def _expr_name(self, node: ast.Name):
        return (
            self.env.get(node.id, frozenset()),
            self.containers.get(node.id),
        )

    def _expr_set(self, node: ast.Set):
        taints: set[Taint] = set()
        for element in node.elts:
            element_taints, _ = self._expr(element)
            taints |= element_taints
        return _cap(taints), "set"

    def _expr_dict(self, node: ast.Dict):
        taints: set[Taint] = set()
        for key in [*node.keys, *node.values]:
            if key is not None:
                key_taints, _ = self._expr(key)
                taints |= key_taints
        return _cap(taints), "dict"

    def _expr_compare(self, node: ast.Compare):
        # Comparison results (including membership tests) are
        # order-insensitive booleans: strip unordered-iter taint.
        taints: set[Taint] = set()
        for child in [node.left, *node.comparators]:
            child_taints, _ = self._expr(child)
            taints |= child_taints
        return (
            _cap({t for t in taints if t.kind != UNORDERED}),
            None,
        )

    def _expr_binop(self, node: ast.BinOp):
        left, left_container = self._expr(node.left)
        right, right_container = self._expr(node.right)
        container = (
            "set"
            if left_container == "set" and right_container == "set"
            else None
        )
        return _cap(set(left) | set(right)), container

    def _expr_attribute(self, node: ast.Attribute):
        return self._expr(node.value)[0], None

    def _comprehension(self, generators, elements) -> tuple[frozenset[Taint], set[Taint]]:
        """Shared comprehension handling; returns (element taints, iter taints)."""
        iter_taints: set[Taint] = set()
        for comp in generators:
            taints, container = self._expr(comp.iter)
            iter_taints |= taints
            if container in ("set", "dict"):
                iter_taints.add(
                    Taint(
                        kind=UNORDERED,
                        origin_path=self._path,
                        origin_line=getattr(comp.iter, "lineno", 0),
                        note=(
                            f"comprehension over a {container} has no "
                            "defined order"
                        ),
                    )
                )
            self._assign(comp.target, _cap(iter_taints), None)
            for cond in comp.ifs:
                self._expr(cond)
        element_taints: set[Taint] = set(iter_taints)
        for element in elements:
            taints, _ = self._expr(element)
            element_taints |= taints
        return _cap(element_taints), iter_taints

    def _expr_listcomp(self, node: ast.ListComp):
        taints, _ = self._comprehension(node.generators, [node.elt])
        return taints, None

    def _expr_generatorexp(self, node: ast.GeneratorExp):
        taints, _ = self._comprehension(node.generators, [node.elt])
        return taints, None

    def _expr_setcomp(self, node: ast.SetComp):
        taints, _ = self._comprehension(node.generators, [node.elt])
        return taints, "set"

    def _expr_dictcomp(self, node: ast.DictComp):
        taints, _ = self._comprehension(
            node.generators, [node.key, node.value]
        )
        return taints, "dict"

    def _expr_lambda(self, node: ast.Lambda):
        return frozenset(), None

    # -- calls ---------------------------------------------------------
    def _canonical(self, name: str) -> str:
        """Expand the leading import alias of a dotted name."""
        head, _, rest = name.partition(".")
        target = self._aliases.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def _expr_call(self, node: ast.Call):
        arg_taints: set[Taint] = set()
        containers: list[str | None] = []
        for value in [*node.args, *[kw.value for kw in node.keywords]]:
            taints, container = self._expr(value)
            arg_taints |= taints
            containers.append(container)

        name = astutil.call_name(node)
        canonical = self._canonical(name) if name is not None else None
        site = self._analysis._sites.get(id(node))

        if self._collect and name is not None:
            self._check_charge_sink(node, arg_taints)
        if self._collect and site is not None and site.targets:
            self._check_forwarded_sinks(node, site)

        # Sources -------------------------------------------------------
        source = self._source_taint(node, name, canonical)
        if source is not None:
            return _cap(arg_taints | {source}), None

        if canonical is not None:
            tail = canonical.rsplit(".", 1)[-1]
            # Sanitizers strip the unordered kind.
            if canonical in _SANITIZERS or tail == "sorted":
                return (
                    _cap(
                        {t for t in arg_taints if t.kind != UNORDERED}
                    ),
                    None,
                )
            # Order-sensitive float reductions preserve it (and are the
            # float-reduction-order source when fed an unordered iter).
            if canonical in _ORDER_SENSITIVE_REDUCTIONS:
                return _cap(arg_taints), None
            # Unordered-container constructors.
            if canonical in _UNORDERED_CONSTRUCTORS:
                return _cap(arg_taints), _UNORDERED_CONSTRUCTORS[canonical]
            # Dict views: d.keys()/values()/items() on a known dict.
            if "." in name and tail in ("keys", "values", "items"):
                base = name.rsplit(".", 1)[0]
                if self.containers.get(base) == "dict":
                    base_taints = self.env.get(base, frozenset())
                    return _cap(arg_taints | set(base_taints)), "dict"

        # Resolved project calls: substitute the callee summary.
        if site is not None and site.targets:
            result: set[Taint] = set()
            for target in site.targets:
                result |= self._substitute(node, target)
            return _cap(result), None

        # Unresolved: union of base-object and argument taints.
        base_taints: frozenset[Taint] = frozenset()
        if isinstance(node.func, ast.Attribute):
            base_taints, _ = self._expr(node.func.value)
        return _cap(arg_taints | set(base_taints)), None

    def _substitute(self, call: ast.Call, target) -> set[Taint]:
        summary = self._analysis.summaries.get(target.qualname, frozenset())
        params = target.param_names
        shift = (
            1
            if target.class_name is not None
            and params[:1] == ["self"]
            and not _is_static_reference(call)
            else 0
        )
        out: set[Taint] = set()
        for taint in summary:
            if not taint.is_param:
                out.add(taint)
                continue
            index = int(taint.kind.split(":", 1)[1])
            expr = None
            arg_pos = index - shift
            if 0 <= arg_pos < len(call.args):
                expr = call.args[arg_pos]
            elif 0 <= index < len(params):
                expr = astutil.keyword_value(call, params[index])
            if expr is not None:
                expr_taints, _ = self._expr(expr)
                out |= expr_taints
        return {t for t in out if not t.is_param}

    def _source_taint(
        self, node: ast.Call, name: str | None, canonical: str | None
    ) -> Taint | None:
        if name is None:
            return None
        line = getattr(node, "lineno", 0)
        head, _, tail = name.rpartition(".")
        if (head in self._time_modules and tail in astutil.CLOCK_FUNCTIONS) or (
            not head and name in self._clock_names
        ):
            return Taint(WALL_CLOCK, self._path, line, f"{name}()")
        if canonical is None:
            return None
        if canonical == "random" or canonical.startswith("random."):
            return Taint(RNG, self._path, line, f"{name}()")
        if canonical.startswith("numpy.random."):
            attr = canonical[len("numpy.random."):].split(".", 1)[0]
            if attr == "default_rng":
                unseeded = (not node.args and not node.keywords) or (
                    node.args
                    and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
                if unseeded:
                    return Taint(
                        RNG, self._path, line, "unseeded default_rng()"
                    )
                return None
            if attr not in astutil.GENERATOR_API:
                return Taint(RNG, self._path, line, f"{name}()")
        return None

    def _check_charge_sink(
        self, node: ast.Call, arg_taints: set[Taint]
    ) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        attr = func.attr
        if attr not in astutil.CHARGE_METHODS and not attr.startswith(
            "record_"
        ):
            return
        if arg_taints:
            self._sink(node, f"{attr}()", frozenset(arg_taints))

    def _check_forwarded_sinks(self, node: ast.Call, site) -> None:
        """Report tainted arguments that a resolved callee charges."""
        for target in site.targets:
            indices = self._analysis.sink_params.get(
                target.qualname, frozenset()
            )
            if not indices:
                continue
            params = target.param_names
            shift = (
                1
                if target.class_name is not None
                and params[:1] == ["self"]
                and not _is_static_reference(node)
                else 0
            )
            for index in sorted(indices):
                expr = None
                arg_pos = index - shift
                if 0 <= arg_pos < len(node.args):
                    expr = node.args[arg_pos]
                elif 0 <= index < len(params):
                    expr = astutil.keyword_value(node, params[index])
                if expr is None:
                    continue
                taints, _ = self._expr(expr)
                if taints:
                    self._sink(
                        node,
                        f"argument to {target.name}() (charges the ledger)",
                        taints,
                    )

    def _sink(
        self, node: ast.AST, sink: str, taints: frozenset[Taint]
    ) -> None:
        key = (id(node), sink)
        if key in self._seen_sinks:
            return
        self._seen_sinks.add(key)
        self.sinks.append(SinkHit(node=node, sink=sink, taints=taints))


def _is_static_reference(call: ast.Call) -> bool:
    """Whether ``call`` invokes ``Class.method(...)`` unbound (no self)."""
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id[:1].isupper()
    )
