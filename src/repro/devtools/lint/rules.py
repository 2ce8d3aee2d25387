"""The repo-specific lint rules (``RL001``+).

Each rule encodes one concurrency/robustness contract of the serving stack;
``docs/invariants.md`` is the human catalogue (rule code → invariant → why
it exists → which PR introduced it).  Rules are deliberately *syntactic* —
they see one module's AST, resolve calls within that module only, and err
on the side of reporting (a justified ``# repro-lint: disable=`` pragma is
the escape hatch, and an unjustified one is itself a violation).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Iterator, Sequence

from repro.devtools.lint import Module, Rule, Violation, register

# ---------------------------------------------------------------------------
# shared AST helpers


def _terminal_name(expr: ast.expr) -> str | None:
    """The last identifier of a Name/Attribute chain (``a.b.c`` → ``c``)."""
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _dotted(expr: ast.expr) -> str:
    """Best-effort dotted rendering of an expression for messages."""
    if isinstance(expr, ast.Attribute):
        return f"{_dotted(expr.value)}.{expr.attr}"
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Call):
        return f"{_dotted(expr.func)}(...)"
    return "<expr>"


_LOCKISH = re.compile(r"lock|mutex", re.IGNORECASE)


def _is_lock_expr(expr: ast.expr) -> bool:
    """Does this with-item look like a ``threading.Lock``/``RLock``?

    Heuristic on the terminal identifier (``state.lock``, ``self._lock``,
    ``self._registry_lock`` ...).  ``asyncio.Lock`` is entered with
    ``async with`` (an :class:`ast.AsyncWith`), so a *sync* ``with`` on a
    lock-ish name is a thread lock as far as these rules care.
    """
    name = _terminal_name(expr)
    return bool(name and _LOCKISH.search(name))


def _function_defs(
    tree: ast.AST,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _own_statements(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.AST]:
    """Walk a function's body without descending into nested def/lambda —
    nested callables run on their own schedule, not under the enclosing
    lexical scope's locks, and are analyzed as functions of their own."""
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            stack.append(child)


def _handler_catches(handler: ast.ExceptHandler, names: frozenset[str]) -> bool:
    """Does an ``except`` clause catch one of ``names`` (directly or in a
    tuple)?"""
    if handler.type is None:
        return False
    types = (
        handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    )
    return any((_terminal_name(t) or "") in names for t in types)


# ---------------------------------------------------------------------------
# RL001 — no blocking calls while a threading lock is held


#: Method names that perform (potentially unbounded) blocking waits.
_BLOCKING_METHODS: dict[str, str] = {
    "recv": "synchronous socket/pipe read",
    "recv_bytes": "synchronous pipe read",
    "send_bytes": "synchronous pipe write",
    "poll": "synchronous pipe wait",
    "accept": "blocking socket accept",
    "connect": "blocking socket connect",
    "sendall": "blocking socket write",
    "readexactly": "blocking stream read",
    "getresponse": "blocking HTTP read",
    "drain": "runs a drain tick / flush",
    "result": "waits on a future",
    "wait": "waits on another thread",
}

#: Repo-specific calls whose legitimate work is unbounded in schema size —
#: holding a lock across them is a contract decision that must be visible
#: (and justified) at the call site.
_SLOW_CALLS: dict[str, str] = {
    "refresh": "engine refresh: O(dirty scope) work on the calling thread (no executor)",
    "write_schema": "O(schema) DSL serialization",
}

_JOIN_RECEIVER = re.compile(
    r"thread|process|proc\b|pool|executor|future|task|worker", re.IGNORECASE
)

#: Module attributes that block wherever they are called.
_BLOCKING_QUALIFIED: dict[tuple[str, str], str] = {
    ("time", "sleep"): "sleeps while holding the lock",
    ("os", "system"): "spawns a subprocess",
    ("os", "wait"): "waits on a child process",
    ("os", "waitpid"): "waits on a child process",
    ("select", "select"): "blocking select",
}

_SUBPROCESS_NAMES = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)


def _direct_blocking_reason(call: ast.Call, imported: dict[str, str]) -> str | None:
    """Why this very call blocks, or ``None``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        owner = _terminal_name(func.value)
        if owner == "subprocess":
            return f"{_dotted(func)}: spawns and waits on a subprocess"
        if owner is not None and (owner, func.attr) in _BLOCKING_QUALIFIED:
            return f"{_dotted(func)}: {_BLOCKING_QUALIFIED[(owner, func.attr)]}"
        if func.attr == "join":
            if owner is not None and _JOIN_RECEIVER.search(owner):
                return f"{_dotted(func)}: joins a thread/process"
            return None
        if func.attr == "map":
            if owner is not None and _JOIN_RECEIVER.search(owner):
                return f"{_dotted(func)}: blocks on an executor"
            return None
        if func.attr in _BLOCKING_METHODS:
            return f"{_dotted(func)}: {_BLOCKING_METHODS[func.attr]}"
        if func.attr in _SLOW_CALLS:
            return f"{_dotted(func)}: {_SLOW_CALLS[func.attr]}"
        return None
    if isinstance(func, ast.Name):
        origin = imported.get(func.id)
        if origin == "time" and func.id == "sleep":
            return "sleep(): sleeps while holding the lock"
        if origin == "subprocess" and func.id in _SUBPROCESS_NAMES:
            return f"{func.id}(): spawns and waits on a subprocess"
        if func.id in _SLOW_CALLS:
            return f"{func.id}(): {_SLOW_CALLS[func.id]}"
    return None


def _import_origins(tree: ast.Module) -> dict[str, str]:
    """Map locally bound names to the module they were imported from."""
    origins: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = alias.name
    return origins


def _module_blocking_map(
    module: Module, imported: dict[str, str]
) -> dict[str, str]:
    """Fixpoint of "this module-local function (transitively) blocks".

    Resolution is by bare name — good enough inside one module, and
    deliberately conservative: if *any* same-named function blocks, calls
    to that name are treated as blocking.
    """
    functions: dict[str, list[ast.FunctionDef | ast.AsyncFunctionDef]] = {}
    for func in _function_defs(module.tree):
        functions.setdefault(func.name, []).append(func)
    blocking: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for name, defs in functions.items():
            if name in blocking:
                continue
            for func in defs:
                reason = None
                for node in _own_statements(func):
                    if not isinstance(node, ast.Call):
                        continue
                    reason = _direct_blocking_reason(node, imported)
                    if reason is not None:
                        break
                    callee = _terminal_name(node.func)
                    if callee in blocking and callee != name:
                        reason = f"calls {callee} → {blocking[callee]}"
                        break
                if reason is not None:
                    blocking[name] = reason
                    changed = True
                    break
    return blocking


@register
class BlockingUnderLock(Rule):
    code = "RL001"
    name = "blocking-call-under-lock"
    description = (
        "No blocking call (sleep, subprocess, sync socket/pipe I/O, drain "
        "ticks, executor waits, O(schema) work) while a threading.Lock/RLock "
        "is held via a `with` block."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        imported = _import_origins(module.tree)
        transitive = _module_blocking_map(module, imported)
        for func in _function_defs(module.tree):
            yield from self._check_function(module, func, imported, transitive)

    def _check_function(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        imported: dict[str, str],
        transitive: dict[str, str],
    ) -> Iterator[Violation]:
        held: list[tuple[str, int]] = []

        def walk(node: ast.AST) -> Iterator[Violation]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            if isinstance(node, ast.With):
                locks = [
                    item.context_expr
                    for item in node.items
                    if _is_lock_expr(item.context_expr)
                ]
                for lock in locks:
                    held.append((_dotted(lock), node.lineno))
                for child in ast.iter_child_nodes(node):
                    yield from walk(child)
                for _ in locks:
                    held.pop()
                return
            if isinstance(node, ast.Call) and held:
                lock_name, lock_line = held[-1]
                reason = _direct_blocking_reason(node, imported)
                if reason is None:
                    callee = _terminal_name(node.func)
                    if callee in transitive:
                        reason = f"{_dotted(node.func)} may block: {transitive[callee]}"
                if reason is not None:
                    yield self.violation(
                        module,
                        node,
                        f"blocking call while holding `{lock_name}` "
                        f"(held since line {lock_line}): {reason}",
                    )
            for child in ast.iter_child_nodes(node):
                yield from walk(child)

        for statement in func.body:
            yield from walk(statement)


# ---------------------------------------------------------------------------
# RL002 — no await while a sync (threading) lock is held


@register
class AwaitUnderSyncLock(Rule):
    code = "RL002"
    name = "await-under-sync-lock"
    description = (
        "No `await` inside a held non-asyncio lock: a thread lock held "
        "across a suspension point blocks every other coroutine (and can "
        "deadlock the loop) until the awaited task completes."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        for func in _function_defs(module.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from self._check_async(module, func)

    def _check_async(
        self, module: Module, func: ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        def walk(node: ast.AST, lock: tuple[str, int] | None) -> Iterator[Violation]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            if isinstance(node, ast.With):
                locks = [
                    item.context_expr
                    for item in node.items
                    if _is_lock_expr(item.context_expr)
                ]
                inner = (_dotted(locks[-1]), node.lineno) if locks else lock
                for child in ast.iter_child_nodes(node):
                    yield from walk(child, inner)
                return
            if isinstance(node, ast.Await) and lock is not None:
                yield self.violation(
                    module,
                    node,
                    f"`await` while holding sync lock `{lock[0]}` "
                    f"(held since line {lock[1]}); use asyncio.Lock with "
                    "`async with`, or move the await outside the critical "
                    "section",
                )
            for child in ast.iter_child_nodes(node):
                yield from walk(child, lock)

        for statement in func.body:
            yield from walk(statement, None)


# ---------------------------------------------------------------------------
# RL003 — wire/worker verb handlers keep errors typed


#: Verb-handler functions at the wire/worker boundary: every exception that
#: escapes one must already be a typed protocol error.
_HANDLER_NAMES = frozenset(
    {
        "handle",
        "_open",
        "_edit",
        "_report",
        "_check",
        "_close",
        "_drain",
        "_worker_dispatch",
    }
)

_TYPED_ERRORS = frozenset({"WireError"})


def _typed_factory_names(tree: ast.Module) -> frozenset[str]:
    """Module-level functions annotated to return a typed wire error —
    raising their result is raising a WireError."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.returns is not None:
            returns = node.returns
            name = (
                returns.value
                if isinstance(returns, ast.Constant) and isinstance(returns.value, str)
                else _terminal_name(returns)
            )
            if name in _TYPED_ERRORS:
                names.add(node.name)
    return frozenset(names)


@register
class HandlerTypedErrors(Rule):
    code = "RL003"
    name = "handler-typed-errors"
    description = (
        "Wire/worker verb handlers must route every failure into the typed "
        "protocol error shape (WireError): no bare `except:`, no re-raising "
        "untyped exceptions out of a handler — the wire must answer "
        "structured errors, never tracebacks."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        if not module.is_server:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.violation(
                    module,
                    node,
                    "bare `except:` swallows everything including "
                    "KeyboardInterrupt/SystemExit; catch explicit types and "
                    "convert to typed protocol errors",
                )
        factories = _typed_factory_names(module.tree)
        for func in _function_defs(module.tree):
            if func.name not in _HANDLER_NAMES:
                continue
            yield from self._check_handler(module, func, factories)

    def _check_handler(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        factories: frozenset[str],
    ) -> Iterator[Violation]:
        def walk(
            node: ast.AST, catching: frozenset[str] | None
        ) -> Iterator[Violation]:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                return
            if isinstance(node, ast.ExceptHandler):
                caught: frozenset[str] | None = None
                if node.type is not None:
                    types = (
                        node.type.elts
                        if isinstance(node.type, ast.Tuple)
                        else [node.type]
                    )
                    caught = frozenset(_terminal_name(t) or "?" for t in types)
                for child in ast.iter_child_nodes(node):
                    yield from walk(child, caught)
                return
            if isinstance(node, ast.Raise):
                yield from self._check_raise(module, func, node, catching, factories)
            for child in ast.iter_child_nodes(node):
                yield from walk(child, catching)

        for statement in func.body:
            yield from walk(statement, None)

    def _check_raise(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        node: ast.Raise,
        catching: frozenset[str] | None,
        factories: frozenset[str],
    ) -> Iterator[Violation]:
        if node.exc is None:
            if catching is not None and catching <= _TYPED_ERRORS:
                return  # re-raising something already typed
            yield self.violation(
                module,
                node,
                f"verb handler `{func.name}` re-raises an untyped exception; "
                "convert to WireError so the wire answers a structured error",
            )
            return
        name = (
            _terminal_name(node.exc.func)
            if isinstance(node.exc, ast.Call)
            else _terminal_name(node.exc)
        )
        if name in _TYPED_ERRORS or name in factories:
            return
        yield self.violation(
            module,
            node,
            f"verb handler `{func.name}` raises `{name or '<expr>'}` — "
            "handlers may only raise typed protocol errors (WireError)",
        )


# ---------------------------------------------------------------------------
# RL004 — journal consumers own a mark and handle truncation


@register
class JournalConsumerContract(Rule):
    code = "RL004"
    name = "journal-consumer-contract"
    description = (
        "Every attach_journal_consumer caller must expose `journal_mark` "
        "(so compaction never strands it) and every changes_since replay "
        "must handle the SchemaError truncation fallback."
    )

    _FALLBACK_TYPES = frozenset({"SchemaError", "ReproError", "Exception"})

    def check(self, module: Module) -> Iterable[Violation]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(module, node)
        yield from self._check_replays(module)

    def _check_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Violation]:
        attaches = [
            node
            for node in ast.walk(cls)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "attach_journal_consumer"
        ]
        if not attaches:
            return
        if self._defines_journal_mark(cls):
            return
        for call in attaches:
            yield self.violation(
                module,
                call,
                f"class `{cls.name}` registers as a journal consumer but "
                "defines no `journal_mark`; compaction reads it to decide "
                "what it may truncate (Schema.attach_journal_consumer "
                "contract)",
            )

    @staticmethod
    def _defines_journal_mark(cls: ast.ClassDef) -> bool:
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name == "journal_mark"
            ):
                return True
            targets: Sequence[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = (node.target,)
            for target in targets:
                if _terminal_name(target) == "journal_mark":
                    return True
        return False

    def _check_replays(self, module: Module) -> Iterator[Violation]:
        calls_in_guard: set[int] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Try):
                continue
            if not any(
                _handler_catches(handler, self._FALLBACK_TYPES)
                for handler in node.handlers
            ):
                continue
            for child in ast.walk(node):
                if isinstance(child, ast.Call):
                    calls_in_guard.add(id(child))
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "changes_since"
                and id(node) not in calls_in_guard
            ):
                yield self.violation(
                    module,
                    node,
                    "journal replay without a truncation fallback: "
                    "changes_since raises SchemaError when the window was "
                    "compacted away — catch it and rebuild from scratch",
                )


# ---------------------------------------------------------------------------
# RL005 — begin_guard is always paired with end_guard


@register
class GuardPairing(Rule):
    code = "RL005"
    name = "selector-guard-pairing"
    description = (
        "CnfBuilder.begin_guard must be paired with end_guard on all paths "
        "(try/finally): a leaked guard silently tags every later clause "
        "with a foreign selector, corrupting the incremental encoding."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        for func in _function_defs(module.tree):
            yield from self._check_function(module, func)

    @staticmethod
    def _calls(node: ast.AST, method: str) -> bool:
        for child in ast.walk(node):
            if (
                isinstance(child, ast.Call)
                and _terminal_name(child.func) == method
            ):
                return True
        return False

    def _check_function(
        self, module: Module, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Violation]:
        def walk_block(
            block: Sequence[ast.stmt], protected: bool
        ) -> Iterator[Violation]:
            for index, statement in enumerate(block):
                if (
                    isinstance(statement, ast.Expr)
                    and isinstance(statement.value, ast.Call)
                    and _terminal_name(statement.value.func) == "begin_guard"
                ):
                    follower = block[index + 1] if index + 1 < len(block) else None
                    guarded_next = (
                        isinstance(follower, ast.Try)
                        and any(
                            self._calls(stmt, "end_guard")
                            for stmt in follower.finalbody
                        )
                    )
                    if not protected and not guarded_next:
                        yield self.violation(
                            module,
                            statement,
                            "begin_guard without an end_guard reachable on "
                            "all paths — wrap the emission in "
                            "`try: ... finally: end_guard()`",
                        )
                yield from walk_stmt(statement, protected)

        def walk_stmt(statement: ast.stmt, protected: bool) -> Iterator[Violation]:
            if isinstance(
                statement, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                return  # analyzed as its own function
            if isinstance(statement, ast.Try):
                finally_guarded = protected or any(
                    self._calls(stmt, "end_guard") for stmt in statement.finalbody
                )
                yield from walk_block(statement.body, finally_guarded)
                for handler in statement.handlers:
                    yield from walk_block(handler.body, protected)
                yield from walk_block(statement.orelse, finally_guarded)
                yield from walk_block(statement.finalbody, protected)
                return
            for block_name in ("body", "orelse", "finalbody"):
                block = getattr(statement, block_name, None)
                if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                    yield from walk_block(block, protected)

        yield from walk_block(func.body, False)


# ---------------------------------------------------------------------------
# RL006 — no print / traceback dumping in the server surface


_TRACEBACK_DUMPERS = frozenset({"print_exc", "print_exception", "print_stack"})


@register
class NoPrintInServer(Rule):
    code = "RL006"
    name = "no-print-in-server"
    description = (
        "No `print` or naked traceback dumping in src/repro/server/: the "
        "wire answers structured JSON errors, and stray stdout/stderr "
        "writes corrupt CLI --format json output and leak tracebacks the "
        "protocol promises never to emit."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        if not module.is_server:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                yield self.violation(
                    module,
                    node,
                    "`print()` in the server surface; return a structured "
                    "payload or raise a typed WireError instead",
                )
            elif isinstance(func, ast.Name) and func.id in _TRACEBACK_DUMPERS:
                yield self.violation(
                    module,
                    node,
                    f"`{func.id}()` dumps a traceback from the server "
                    "surface; the wire contract is typed errors, never "
                    "tracebacks",
                )
            elif (
                isinstance(func, ast.Attribute)
                and func.attr in _TRACEBACK_DUMPERS
                and _terminal_name(func.value) == "traceback"
            ):
                yield self.violation(
                    module,
                    node,
                    f"`traceback.{func.attr}()` in the server surface; the "
                    "wire contract is typed errors, never tracebacks",
                )


# ---------------------------------------------------------------------------
# RL007 — guard selectors occur only negatively, and last, in emitted clauses


#: CnfBuilder methods that emit clauses into the solver.
_CLAUSE_EMITTERS = frozenset(
    {
        "add_clause",
        "add_implication",
        "add_equivalence",
        "at_most_one",
        "at_most_k",
        "at_least_k",
        "exactly_one",
    }
)

_SELECTORISH = re.compile(r"(^|_)(sel|selector|guard)s?$", re.IGNORECASE)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_selectorish(expr: ast.expr) -> bool:
    name = _terminal_name(expr)
    return bool(name and _SELECTORISH.search(name))


@register
class SelectorPolarity(Rule):
    code = "RL007"
    name = "selector-polarity"
    description = (
        "In the SAT encoder surface, guard selectors may only enter emitted "
        "clauses negatively and in last position: CDCL clause learning "
        "infers group membership from negative selector occurrences, and "
        "the builder keeps watched literals off the guard by appending it "
        "last — a positive or early selector silently breaks group "
        "retirement soundness."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        if not module.is_encoder:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_emitter_call(module, node)
            elif isinstance(node, (ast.Tuple, ast.List)):
                yield from self._check_literal(module, node)

    def _check_emitter_call(
        self, module: Module, call: ast.Call
    ) -> Iterator[Violation]:
        if _terminal_name(call.func) not in _CLAUSE_EMITTERS:
            return
        for arg in call.args:
            yield from self._positive_selectors(module, arg)

    def _positive_selectors(
        self, module: Module, expr: ast.expr
    ) -> Iterator[Violation]:
        """Selector-ish names in a clause argument not under a unary minus.

        Comprehensions are skipped: they rebuild literal lists (filters
        compare against ``-guard`` etc.) rather than emit raw selectors.
        """
        stack: list[ast.expr] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, _COMPREHENSIONS):
                continue
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
                if _is_selectorish(node.operand):
                    continue  # negated selector: the legal polarity
            if isinstance(node, (ast.Name, ast.Attribute)) and _is_selectorish(
                node
            ):
                yield self.violation(
                    module,
                    node,
                    f"guard selector `{_dotted(node)}` passed to a clause "
                    "emitter without negation; selectors must occur only "
                    "negatively in emitted clauses (learned clauses encode "
                    "group membership through the negative occurrence)",
                )
                continue
            stack.extend(
                child
                for child in ast.iter_child_nodes(node)
                if isinstance(child, ast.expr)
            )

    def _check_literal(
        self, module: Module, literal: ast.Tuple | ast.List
    ) -> Iterator[Violation]:
        """A negated selector among a clause literal's *immediate* elements
        must sit in last position (watched-literal contract)."""
        last = len(literal.elts) - 1
        for index, element in enumerate(literal.elts):
            if (
                index != last
                and isinstance(element, ast.UnaryOp)
                and isinstance(element.op, ast.USub)
                and _is_selectorish(element.operand)
            ):
                yield self.violation(
                    module,
                    element,
                    f"negated guard selector `-{_dotted(element.operand)}` is "
                    f"not the last element of the clause literal; the "
                    "builder appends guards last so both solver watches stay "
                    "on real literals",
                )


# ---------------------------------------------------------------------------
# RL008 — WireError codes come from repro.server.protocol, never inline


def _protocol_constant_names(tree: ast.Module) -> frozenset[str]:
    """Uppercase module-level string constants registered in a module-level
    ``HTTP_STATUS`` dict literal — i.e. this module *is* the protocol
    registry (protocol.py defining its own codes)."""
    constants: set[str] = set()
    status_keys: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if (
                target.id.isupper()
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                constants.add(target.id)
            elif target.id == "HTTP_STATUS" and isinstance(node.value, ast.Dict):
                for key in node.value.keys:
                    name = _terminal_name(key) if key is not None else None
                    if name is not None:
                        status_keys.add(name)
    return frozenset(constants & status_keys)


@register
class WireErrorCodeProvenance(Rule):
    code = "RL008"
    name = "wire-error-code-provenance"
    description = (
        "Every WireError code must be a constant named in "
        "repro.server.protocol (imported, `protocol.X`, or — inside "
        "protocol.py itself — registered in HTTP_STATUS): an inline string "
        "literal bypasses the status mapping and the contract extractor. "
        "Dynamic forwarding of an already-typed code needs a justified "
        "suppression."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        if not module.is_server:
            return
        imported = _import_origins(module.tree)
        own_constants = _protocol_constant_names(module.tree)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and _terminal_name(node.func) == "WireError"
                and node.args
            ):
                yield from self._check_code_arg(
                    module, node.args[0], imported, own_constants
                )

    def _check_code_arg(
        self,
        module: Module,
        arg: ast.expr,
        imported: dict[str, str],
        own_constants: frozenset[str],
    ) -> Iterator[Violation]:
        if isinstance(arg, ast.Constant):
            yield self.violation(
                module,
                arg,
                f"inline WireError code {arg.value!r}; use the constant "
                "from repro.server.protocol so the code stays registered "
                "with an HTTP status",
            )
            return
        if isinstance(arg, ast.Name):
            origin = imported.get(arg.id, "")
            if origin.endswith("protocol") or arg.id in own_constants:
                return
            yield self.violation(
                module,
                arg,
                f"WireError code `{arg.id}` is not a constant from "
                "repro.server.protocol; import the registered constant "
                "(or justify dynamic forwarding with a suppression)",
            )
            return
        if (
            isinstance(arg, ast.Attribute)
            and arg.attr.isupper()
            and _terminal_name(arg.value) == "protocol"
        ):
            return
        yield self.violation(
            module,
            arg,
            f"WireError code `{_dotted(arg)}` is computed dynamically; "
            "codes must be constants from repro.server.protocol (justify "
            "forwarding of an already-typed code with a suppression)",
        )


# ---------------------------------------------------------------------------
# RL009 — log-before-ack: every edit acknowledgement is preceded by a
# durable journal append


_ACK_SUFFIX = "ack_edit"
_JOURNAL_SUFFIX = "log_append"


@register
class LogBeforeAck(Rule):
    code = "RL009"
    name = "log-before-ack"
    description = (
        "In the server surface, any function that acknowledges an edit "
        "(calls a `*ack_edit` method) must durably journal it first (a "
        "`*log_append` call earlier in the same function): an edit acked "
        "before it is logged is lost by a router crash even though the "
        "client was told it is safe.  Nested defs do not count — they run "
        "on their own schedule, after the ack may already have left."
    )

    def check(self, module: Module) -> Iterable[Violation]:
        if not module.is_server:
            return
        for func in _function_defs(module.tree):
            yield from self._check_function(module, func)

    def _check_function(
        self,
        module: Module,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterator[Violation]:
        acks: list[ast.Call] = []
        journal_lines: list[int] = []
        # Walk the function's own body, never descending into nested
        # def/lambda (even as a direct statement): deferred callables do
        # not dominate the acknowledgement in program order.
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.Call):
                name = _terminal_name(node.func) or ""
                if name.endswith(_ACK_SUFFIX):
                    acks.append(node)
                elif name.endswith(_JOURNAL_SUFFIX):
                    journal_lines.append(node.lineno)
            stack.extend(ast.iter_child_nodes(node))
        for ack in acks:
            if any(line < ack.lineno for line in journal_lines):
                continue
            yield self.violation(
                module,
                ack,
                f"`{_dotted(ack.func)}(...)` acknowledges an edit with no "
                "durable journal append before it in this function; the "
                "log-before-ack invariant requires a `*log_append` call to "
                "dominate every acknowledgement (an acked-but-unlogged edit "
                "is lost by a router crash)",
            )
