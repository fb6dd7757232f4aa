"""The nine project-invariant rules (``RPR001``..``RPR009``).

Each rule encodes a contract an earlier PR established and the test
suite defends only dynamically; DESIGN.md section 11 catalogues them.
The rules are scoped by path fragment so the fixture suite can exercise
them on synthetic snippets under the same virtual paths.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .framework import Finding, Rule, register

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _decorator_name(dec: ast.AST) -> Optional[str]:
    if isinstance(dec, ast.Call):
        dec = dec.func
    name = _dotted(dec)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def _is_none(node: Optional[ast.AST]) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _annotation_idents(node: ast.AST) -> Set[str]:
    """Every identifier mentioned anywhere in an annotation."""
    idents: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            idents.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            idents.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotations ("np.ndarray") still name the type.
            idents.update(part for chunk in sub.value.replace("[", " ")
                          .replace("]", " ").replace(",", " ").split()
                          for part in chunk.split("."))
    return idents


# ----------------------------------------------------------------------
# RPR001 -- zero-copy task transport
# ----------------------------------------------------------------------
@register
class TaskPayloadRule(Rule):
    """Worker task dataclasses must ship refs and strides, not arrays.

    A declared ``np.ndarray`` / ``Trajectory`` field would be pickled
    into every task message, destroying the zero-copy transport built
    in PR 3.  ``Optional[...] = None`` fields are allowed: they are the
    inline *fallback* slot the executor fills only when shared memory
    is unavailable.
    """

    code = "RPR001"
    name = "task-payload"
    description = (
        "worker task dataclasses may not declare ndarray/Trajectory "
        "payload fields (refs and strides only)"
    )
    paths = ("repro/engine/worker.py",)

    _HEAVY = {"ndarray", "Trajectory"}

    def check(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not any(_decorator_name(d) == "dataclass"
                       for d in node.decorator_list):
                continue
            for stmt in node.body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                heavy = self._HEAVY & _annotation_idents(stmt.annotation)
                if heavy and not _is_none(stmt.value):
                    findings.append(self.finding(
                        path, stmt,
                        f"task dataclass {node.name}.{stmt.target.id} "
                        f"declares a {'/'.join(sorted(heavy))} payload "
                        "without a None default; ship a SharedArrayRef/"
                        "SnapshotSlabRef plus strides instead",
                    ))
        return findings


# ----------------------------------------------------------------------
# RPR002 -- shared-memory release reachability
# ----------------------------------------------------------------------
def _try_spans(tree: ast.Module) -> List[Tuple[Set[int], List[ast.stmt]]]:
    """(ids of nodes inside try.body, finalbody stmts) per Try node."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and node.finalbody:
            body_ids = {
                id(sub) for stmt in node.body for sub in ast.walk(stmt)
            }
            spans.append((body_ids, node.finalbody))
    return spans


def _final_releases(stmts: Sequence[ast.stmt], attrs: Set[str]) -> Set[str]:
    """Receivers of ``<recv>.<attr>()`` calls in a finally body."""
    receivers = set()
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in attrs):
                recv = _dotted(sub.func.value)
                if recv:
                    receivers.add(recv)
    return receivers


@register
class ShmReleaseRule(Rule):
    """Every shared-memory publication needs a reachable release.

    Three contracts from PR 2's leak tests:

    * raw ``SharedMemory(create=True)`` segments need an ``unlink()``
      path (a method of the owning class, or a same-function finally);
    * ``begin_batch()`` must sit inside a ``try`` whose ``finally``
      trims or closes the same store, so a worker crash between publish
      and dispatch cannot strand segments until process exit;
    * ``publish(...)`` on a ``self.*`` store requires the owning class
      to expose a release method (``close``/``stop``/``shutdown``/
      ``__exit__``/``__del__``) that closes, trims or unlinks it.
    """

    code = "RPR002"
    name = "shm-release"
    description = (
        "SharedMemory/SharedArrayStore publications must be reachable "
        "from a close/unlink in a finally or close() method"
    )
    paths = ("src/repro/",)

    _RELEASE_METHODS = {"close", "stop", "shutdown", "__exit__", "__del__"}
    _RELEASE_ATTRS = {"close", "trim", "unlink"}

    def check(self, tree, source, path):
        findings: List[Finding] = []
        spans = _try_spans(tree)

        def finally_releases(call: ast.Call, receiver: str,
                             attrs: Set[str]) -> bool:
            for body_ids, finalbody in spans:
                if id(call) in body_ids:
                    if receiver in _final_releases(finalbody, attrs):
                        return True
            return False

        def class_methods(cls: ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield stmt

        def class_has_unlink(cls: Optional[ast.ClassDef]) -> bool:
            if cls is None:
                return False
            for method in class_methods(cls):
                for sub in ast.walk(method):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "unlink"):
                        return True
            return False

        def class_has_release(cls: Optional[ast.ClassDef]) -> bool:
            if cls is None:
                return False
            for method in class_methods(cls):
                if method.name not in self._RELEASE_METHODS:
                    continue
                for sub in ast.walk(method):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in self._RELEASE_ATTRS):
                        recv = _dotted(sub.func.value)
                        if recv and recv.startswith("self"):
                            return True
            return False

        def visit(node: ast.AST, cls: Optional[ast.ClassDef]):
            if isinstance(node, ast.ClassDef):
                cls = node
            if isinstance(node, ast.Call):
                func = node.func
                name = _dotted(func) or ""
                if name.rsplit(".", 1)[-1] == "SharedMemory" and any(
                    kw.arg == "create"
                    and isinstance(kw.value, ast.Constant)
                    and kw.value.value is True
                    for kw in node.keywords
                ):
                    if not (class_has_unlink(cls)
                            or self._creation_in_finally(node, spans)):
                        findings.append(self.finding(
                            path, node,
                            "SharedMemory(create=True) with no reachable "
                            "unlink() (add one to the owning class or a "
                            "finally block)",
                        ))
                elif isinstance(func, ast.Attribute):
                    recv = _dotted(func.value)
                    if func.attr == "begin_batch" and recv:
                        if not finally_releases(
                            node, recv, {"trim", "close"}
                        ):
                            findings.append(self.finding(
                                path, node,
                                f"{recv}.begin_batch() is not followed by "
                                f"a `finally: {recv}.trim()` -- an "
                                "exception between publish and dispatch "
                                "strands shared-memory segments",
                            ))
                    elif (func.attr == "publish" and recv
                          and recv.startswith("self")):
                        if not (class_has_release(cls)
                                or finally_releases(
                                    node, recv, self._RELEASE_ATTRS)):
                            findings.append(self.finding(
                                path, node,
                                f"{recv}.publish(...) but the owning class "
                                "has no close/stop/shutdown/__exit__ "
                                "method releasing the store",
                            ))
            for child in ast.iter_child_nodes(node):
                visit(child, cls)

        visit(tree, None)
        return findings

    @staticmethod
    def _creation_in_finally(call: ast.Call, spans) -> bool:
        for body_ids, finalbody in spans:
            if id(call) in body_ids:
                if _final_releases(finalbody, {"unlink"}):
                    return True
        return False


# ----------------------------------------------------------------------
# RPR003 -- cache-key purity
# ----------------------------------------------------------------------
@register
class CacheKeyPurityRule(Rule):
    """Planner cache-key functions must be pure.

    Request coalescing (PR 5) folds concurrent queries whose plan keys
    match; a key that reads the clock, RNG state or the environment
    would coalesce distinct work or split identical work.  Entry points
    are module-level functions named ``*_key`` or containing
    ``fingerprint``; the scan follows same-module callees.
    """

    code = "RPR003"
    name = "cache-key-purity"
    description = (
        "planner cache-key functions may not read time, randomness, "
        "the environment, or perform I/O"
    )
    #: ``trajectory.py`` holds the fingerprint formula itself.
    paths = ("repro/engine/planner.py", "repro/engine/cache.py",
             "repro/trajectory/trajectory.py")

    _BANNED_PREFIXES = (
        "time.", "random.", "secrets.", "uuid.", "datetime.",
        "np.random", "numpy.random",
        "os.environ", "os.getenv", "os.urandom", "os.getpid",
    )
    _BANNED_BUILTINS = {"open", "input", "print", "id", "hash",
                        "eval", "exec", "globals", "vars"}
    _BANNED_MODULES = {"time", "random", "secrets", "uuid", "datetime", "os"}

    def check(self, tree, source, path):
        findings: List[Finding] = []
        module_funcs: Dict[str, ast.FunctionDef] = {
            stmt.name: stmt
            for stmt in tree.body
            if isinstance(stmt, ast.FunctionDef)
        }
        # Names imported *from* impure modules count as impure reads.
        tainted_imports: Set[str] = set()
        for stmt in tree.body:
            if (isinstance(stmt, ast.ImportFrom)
                    and stmt.module in self._BANNED_MODULES):
                tainted_imports.update(
                    alias.asname or alias.name for alias in stmt.names
                )

        def entry(name: str) -> bool:
            return name.endswith("_key") or "fingerprint" in name

        def impurities(func: ast.FunctionDef):
            # ast.walk yields outer attributes before inner ones, so the
            # seen-position set reports `os.environ.get` once, not also
            # its nested `os.environ` read.
            seen_at = set()
            for sub in ast.walk(func):
                if isinstance(sub, ast.Attribute):
                    name = _dotted(sub)
                    if name and name.startswith(self._BANNED_PREFIXES):
                        pos = (sub.lineno, sub.col_offset)
                        if pos in seen_at:
                            continue
                        seen_at.add(pos)
                        yield sub, name
                elif isinstance(sub, ast.Call):
                    if (isinstance(sub.func, ast.Name)
                            and sub.func.id in self._BANNED_BUILTINS):
                        yield sub, f"{sub.func.id}()"
                elif (isinstance(sub, ast.Name)
                        and isinstance(sub.ctx, ast.Load)
                        and sub.id in tainted_imports):
                    yield sub, sub.id

        for name, func in module_funcs.items():
            if not entry(name):
                continue
            seen = {name}
            queue = [(func, name)]
            while queue:
                current, via = queue.pop()
                for node, what in impurities(current):
                    suffix = "" if via == name else f" (via {via}())"
                    findings.append(self.finding(
                        path, node if hasattr(node, "lineno") else current,
                        f"cache-key function {name}() is impure: "
                        f"uses {what}{suffix}",
                    ))
                for sub in ast.walk(current):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Name)
                            and sub.func.id in module_funcs
                            and sub.func.id not in seen):
                        seen.add(sub.func.id)
                        queue.append((module_funcs[sub.func.id],
                                      sub.func.id))
        return findings


# ----------------------------------------------------------------------
# RPR004 -- monotonic deadlines in hot paths
# ----------------------------------------------------------------------
@register
class WallClockRule(Rule):
    """Worker and executor code paths may not read the wall clock.

    Deadlines thread through the ``MotifTimeout`` budget, which is
    anchored on ``time.perf_counter()``; a ``time.time()`` call in a
    chunk path would make budgets jump under NTP slew and break the
    deterministic replay harness.  ``perf_counter``/``monotonic`` are
    allowed.
    """

    code = "RPR004"
    name = "wall-clock"
    description = (
        "no wall-clock reads (time.time, datetime.now) in worker/"
        "executor chunk paths; use the MotifTimeout budget"
    )
    paths = ("repro/engine/worker.py", "repro/engine/executor.py")

    _BANNED = {
        "time.time", "time.time_ns", "time.ctime", "time.asctime",
        "time.localtime", "time.gmtime", "time.strftime",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }

    def check(self, tree, source, path):
        aliases: Dict[str, str] = {}
        for stmt in ast.walk(tree):
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    aliases[alias.asname or alias.name] = alias.name
            elif isinstance(stmt, ast.ImportFrom) and stmt.module:
                for alias in stmt.names:
                    aliases[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )

        def resolve(func: ast.AST) -> Optional[str]:
            name = _dotted(func)
            if name is None:
                return None
            head, _, rest = name.partition(".")
            head = aliases.get(head, head)
            return f"{head}.{rest}" if rest else head

        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                resolved = resolve(node.func)
                if resolved in self._BANNED:
                    findings.append(self.finding(
                        path, node,
                        f"wall-clock call {resolved}() in a worker/"
                        "executor path; thread deadlines through the "
                        "MotifTimeout budget (perf_counter-based)",
                    ))
        return findings


# ----------------------------------------------------------------------
# RPR005 -- typed service errors
# ----------------------------------------------------------------------
@register
class ServiceErrorRule(Rule):
    """Service handlers must map exceptions to the protocol taxonomy.

    A bare ``except:`` (or an ``except Exception`` that swallows the
    error without producing a typed ``protocol`` error or re-raising)
    would collapse the HTTP status mapping clients rely on.
    """

    code = "RPR005"
    name = "typed-service-errors"
    description = (
        "no bare except in service code; broad handlers must map to "
        "typed protocol errors or re-raise"
    )
    paths = ("repro/service/",)

    _PROTOCOL_NAMES = {
        "ServiceError", "BadRequestError", "UnknownSnapshotError",
        "OverloadedError", "DeadlineExceededError",
        "ServiceUnavailableError", "error_payload", "error_from_payload",
    }
    _BROAD = {"Exception", "BaseException"}

    def check(self, tree, source, path):
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(self.finding(
                    path, node,
                    "bare `except:` in service code; catch specific "
                    "exceptions and map them to protocol errors",
                ))
                continue
            caught = {
                sub.id
                for sub in ast.walk(node.type)
                if isinstance(sub, ast.Name)
            } | {
                sub.attr
                for sub in ast.walk(node.type)
                if isinstance(sub, ast.Attribute)
            }
            if not (caught & self._BROAD):
                continue
            referenced: Set[str] = set()
            reraises = False
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    referenced.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    referenced.add(sub.attr)
                elif isinstance(sub, ast.Raise) and sub.exc is None:
                    reraises = True
            if not (reraises or referenced & self._PROTOCOL_NAMES):
                findings.append(self.finding(
                    path, node,
                    "`except Exception` handler neither re-raises nor "
                    "maps the failure to a typed protocol error",
                ))
        return findings


# ----------------------------------------------------------------------
# RPR006 -- fork-safe module state
# ----------------------------------------------------------------------
@register
class ForkSafetyRule(Rule):
    """No module-level mutable state in modules imported by pool workers.

    Worker processes are started via spawn *or* fork depending on the
    platform; under fork, module-level dicts/lists are silently shared
    copy-on-write and then diverge, so cross-process caches must live
    behind explicit shared-memory plumbing or be re-derived per worker.
    ``None`` sentinels, tuples and frozensets are fine.
    """

    code = "RPR006"
    name = "fork-safety"
    description = (
        "no fork-unsafe module-level mutable state in modules imported "
        "by pool workers"
    )
    paths = ("repro/engine/worker.py", "repro/engine/shm.py")

    _MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "OrderedDict",
                      "defaultdict", "deque", "Counter"}
    _MUTABLE_NODES = (ast.Dict, ast.List, ast.Set,
                      ast.DictComp, ast.ListComp, ast.SetComp)

    def check(self, tree, source, path):
        findings = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if value is None:
                continue
            kind = None
            if isinstance(value, self._MUTABLE_NODES):
                kind = type(value).__name__.lower()
            elif isinstance(value, ast.Call):
                callee = _dotted(value.func)
                if callee and callee.rsplit(".", 1)[-1] in self._MUTABLE_CALLS:
                    kind = callee
            if kind is None:
                continue
            names = ", ".join(
                _dotted(t) or "<target>" for t in targets
            )
            findings.append(self.finding(
                path, stmt,
                f"module-level mutable state `{names}` ({kind}) in a "
                "module imported by pool workers; fork-unsafe -- guard "
                "it or move it into the worker context",
            ))
        return findings


# ----------------------------------------------------------------------
# RPR007 -- lock-order graph
# ----------------------------------------------------------------------
_LOCK_KINDS = {"Lock": "plain", "RLock": "reentrant", "Condition": "reentrant"}


@register
class LockOrderRule(Rule):
    """Cross-function lock-order graph; fails on cycles.

    Tracks every ``with self.<lock>:`` / ``with <x>.get_lock():``
    acquisition per class, propagates lock sets through ``self.m()``
    calls to a fixpoint, and accumulates held->acquired edges across
    all scoped files.  :meth:`finish` runs cycle detection over the
    combined graph -- two code paths taking the same pair of locks in
    opposite orders is a deadlock waiting for enough load (the
    coalescing + admission locks of PR 5 are the motivating pair).
    Re-acquiring a non-reentrant lock already held is reported
    immediately.
    """

    code = "RPR007"
    name = "lock-order"
    description = (
        "threading.Lock acquisitions must form an acyclic lock-order "
        "graph across service and executor code"
    )
    paths = (
        "repro/service/service.py",
        "repro/engine/executor.py",
        "repro/engine/shm.py",
    )

    def __init__(self) -> None:
        self._edges: Dict[Tuple[str, str], Tuple[str, int]] = {}

    def check(self, tree, source, path):
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(node, path))
        return findings

    # -- per-class analysis -------------------------------------------
    def _check_class(self, cls: ast.ClassDef, path: str) -> List[Finding]:
        declared: Dict[str, str] = {}  # attr chain -> kind
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        for method in methods.values():
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                value = sub.value
                if not isinstance(value, ast.Call):
                    continue
                callee = _dotted(value.func) or ""
                kind = _LOCK_KINDS.get(callee.rsplit(".", 1)[-1])
                if kind is None:
                    continue
                for target in sub.targets:
                    chain = _dotted(target)
                    if chain and chain.startswith("self."):
                        declared[chain[len("self."):]] = kind

        def lock_node(expr: ast.AST) -> Optional[Tuple[str, str]]:
            """(node name, kind) when ``expr`` acquires a lock."""
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "get_lock"):
                recv = _dotted(expr.func.value)
                if recv:
                    return (f"{cls.name}.{recv}.get_lock", "plain")
                return None
            chain = _dotted(expr)
            if chain and chain.startswith("self."):
                tail = chain[len("self."):]
                if tail in declared:
                    return (f"{cls.name}.{tail}", declared[tail])
                if "lock" in tail.lower() or "cond" in tail.lower():
                    return (f"{cls.name}.{tail}", "plain")
            return None

        findings: List[Finding] = []
        # Per method: direct acquisitions and self-call sites, each with
        # the lock stack held at that point.
        acquisitions: Dict[str, List[Tuple[str, str, int, Tuple[str, ...]]]]
        acquisitions = {}
        call_sites: Dict[str, List[Tuple[str, Tuple[str, ...], int]]] = {}

        def scan(node: ast.AST, held: Tuple[str, ...], method: str):
            if isinstance(node, ast.With):
                entered: List[str] = []
                for item in node.items:
                    lock = lock_node(item.context_expr)
                    if lock is not None:
                        name, kind = lock
                        acquisitions[method].append(
                            (name, kind, item.context_expr.lineno, held)
                        )
                        held = held + (name,)
                        entered.append(name)
                for stmt in node.body:
                    scan(stmt, held, method)
                return
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"
                    and node.func.attr in methods):
                call_sites[method].append(
                    (node.func.attr, held, node.lineno)
                )
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    continue
                scan(child, held, method)

        for name, method in methods.items():
            acquisitions[name] = []
            call_sites[name] = []
            for stmt in method.body:
                scan(stmt, (), name)

        # Fixpoint: the set of locks a method may acquire, transitively.
        locksets: Dict[str, Set[str]] = {
            name: {acq[0] for acq in acqs}
            for name, acqs in acquisitions.items()
        }
        changed = True
        while changed:
            changed = False
            for name in methods:
                for callee, _held, _line in call_sites[name]:
                    before = len(locksets[name])
                    locksets[name] |= locksets.get(callee, set())
                    if len(locksets[name]) != before:
                        changed = True

        for name in methods:
            for lock, kind, line, held in acquisitions[name]:
                if lock in held and kind == "plain":
                    findings.append(self.finding(
                        path, line,
                        f"non-reentrant lock {lock} re-acquired while "
                        f"already held in {cls.name}.{name}() -- "
                        "guaranteed self-deadlock",
                    ))
                for prior in held:
                    if prior != lock:
                        self._edges.setdefault(
                            (prior, lock), (path, line)
                        )
            for callee, held, line in call_sites[name]:
                for lock in locksets.get(callee, ()):
                    for prior in held:
                        if prior != lock:
                            self._edges.setdefault(
                                (prior, lock), (path, line)
                            )
        return findings

    # -- cross-file cycle detection -----------------------------------
    def finish(self) -> Iterable[Finding]:
        graph: Dict[str, List[str]] = {}
        for (src, dst) in self._edges:
            graph.setdefault(src, []).append(dst)
            graph.setdefault(dst, [])
        findings: List[Finding] = []
        reported: Set[frozenset] = set()
        state: Dict[str, int] = {}  # 0 = visiting, 1 = done
        stack: List[str] = []

        def dfs(node: str):
            state[node] = 0
            stack.append(node)
            for nxt in graph[node]:
                if nxt not in state:
                    dfs(nxt)
                elif state[nxt] == 0:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    key = frozenset(cycle)
                    if key not in reported:
                        reported.add(key)
                        edge = (cycle[0], cycle[1])
                        site = self._edges.get(
                            edge, next(iter(self._edges.values()))
                        )
                        findings.append(Finding(
                            self.code,
                            "lock-order cycle: " + " -> ".join(cycle)
                            + " (opposite nesting orders deadlock "
                            "under contention)",
                            site[0], site[1],
                        ))
            stack.pop()
            state[node] = 1

        for node in sorted(graph):
            if node not in state:
                dfs(node)
        return findings


# ----------------------------------------------------------------------
# RPR008 -- crash-safe pool dispatch
# ----------------------------------------------------------------------
@register
class PoolDispatchRule(Rule):
    """All pool dispatch must route through the crash-safe dispatcher.

    PR 8 centralised worker-crash recovery in
    ``ProcessExecutor.pool_map``: submission, broken-pool detection,
    pool rebuild and re-dispatch of unfinished tasks live in one place.
    A direct ``pool.map(...)`` / ``pool.submit(...)`` call anywhere
    else would hang (or raise ``BrokenProcessPool``) the moment a
    worker dies, silently bypassing the ``worker_crashes`` /
    ``redispatches`` accounting and the typed ``WorkerCrashError``
    contract the service layer maps onto the wire.  Only the body of
    ``pool_map`` itself may touch the pool's dispatch surface.
    """

    code = "RPR008"
    name = "crash-safe-dispatch"
    description = (
        "no direct pool.map/imap/submit outside the pool_map "
        "crash-safe dispatcher"
    )
    paths = ("repro/engine/", "repro/service/")

    _DISPATCH_ATTRS = {
        "map", "imap", "imap_unordered", "starmap", "starmap_async",
        "map_async", "apply", "apply_async", "submit",
    }
    #: The one sanctioned dispatcher (executor.ProcessExecutor.pool_map).
    _SANCTIONED = "pool_map"

    def check(self, tree, source, path):
        sanctioned_ids: Set[int] = set()
        for node in ast.walk(tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == self._SANCTIONED):
                sanctioned_ids.update(
                    id(sub) for stmt in node.body for sub in ast.walk(stmt)
                )
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if id(node) in sanctioned_ids:
                continue
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._DISPATCH_ATTRS):
                continue
            recv = _dotted(node.func.value)
            if recv is None or "pool" not in recv.lower():
                continue
            findings.append(self.finding(
                path, node,
                f"direct {recv}.{node.func.attr}() dispatch bypasses the "
                "crash-safe pool_map dispatcher (no broken-pool "
                "detection, no re-dispatch, no worker_crashes "
                "accounting)",
            ))
        return findings


# ----------------------------------------------------------------------
# RPR009 -- no stray output on library paths
# ----------------------------------------------------------------------
@register
class StrayOutputRule(Rule):
    """Library code must not write to stdout.

    The serving stack observes itself through the metrics registry,
    the trace sink and the ``repro.service`` logger -- never through
    ``print``.  A stray ``print`` on a library path corrupts
    machine-read stdout (the CLI's JSON mode, a piped scrape),
    interleaves arbitrarily across fleet workers and pool children,
    and vanishes entirely in daemonised deployments.  Only the
    operator-facing surfaces -- the CLIs, the plotting helpers and
    the test harness -- own stdout; everything else reports through
    ``logging`` or :mod:`repro.obs`.
    """

    code = "RPR009"
    name = "no-stray-output"
    description = (
        "no print()/sys.stdout.write() outside the CLI, viz and "
        "testing surfaces"
    )
    paths = ("repro/",)

    #: Operator-facing surfaces where stdout *is* the interface.
    _EXEMPT = (
        "repro/cli.py",
        "repro/analysis/cli.py",
        "repro/viz.py",
        "repro/testing.py",
    )

    def check(self, tree, source, path):
        normalized = path.replace("\\", "/")
        if any(fragment in normalized for fragment in self._EXEMPT):
            return []
        findings: List[Finding] = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                what = "print()"
            elif _dotted(node.func) == "sys.stdout.write":
                what = "sys.stdout.write()"
            else:
                continue
            findings.append(self.finding(
                path, node,
                f"stray {what} on a library path; report through "
                "logging or repro.obs (stdout belongs to the CLI)",
            ))
        return findings
