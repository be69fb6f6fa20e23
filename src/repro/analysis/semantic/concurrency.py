"""Process-safety & concurrency contracts (CONC001–CONC005).

``run_many`` fans simulations out over a *fork* pool, the determinism
verifier re-runs specs in a fresh subprocess, and several processes
share rendezvous files (the engine result cache, stream manifests, the
fleet registry, bench records, the incremental-analysis cache).  The
ROADMAP's distributed experiment service promotes exactly these
boundaries from "one host, one pool" to "many hosts, many queues" — so
this pass certifies them statically, the way the cycle-domain and
effect passes certify virtual-time correctness:

=========  =============================================================
CONC001    mutable module-global state written by code reachable from a
           worker entrypoint — a forked worker mutates its *copy*, the
           parent never sees it (or worse, sees stale pre-fork state),
           so results silently depend on which process ran the spec
CONC002    fork-captured resources crossing the pool boundary: lambdas,
           bound methods, closures, open file handles, locks, or live
           RNG objects passed to ``ProcessPoolExecutor.submit``/``map``
           — handles are duplicated, locks may be held forever, RNG
           state forks and streams collide (inject a seed, not a
           generator; reseed per worker)
CONC003    non-atomic persistence: a raw ``os.replace`` — or a
           write-mode open / ``write_text`` / ``write_bytes`` touching
           a shared on-disk artifact — anywhere outside the single
           sanctioned helper :mod:`repro.util.atomicio`, exactly as
           DET002 allowlists :mod:`repro.util.hostclock` for the host
           clock
CONC004    pickle-boundary audit: a type transitively reachable from
           ``RunSpec``/``SimResult`` carries a raw ``set``/``frozenset``
           payload (iteration order is process-dependent, so two
           bit-identical runs pickle different bytes) or a lambda/bound
           method (unpicklable); ``__getstate__``/``__reduce__`` on the
           class is the sanctioned escape hatch
CONC005    post-fork ``os.environ`` read in worker-reachable code
           outside a sanctioned config-snapshot accessor — env state
           read after the fork may differ from what the parent hashed
           into the cache key, so the worker simulates a different
           machine than the key describes
=========  =============================================================

Worker entrypoints are *derived*, not hardcoded: any callable passed to
``submit``/``map`` on a ``ProcessPoolExecutor`` (or ``multiprocessing``
pool) is a root, and reachability is computed over a whole-program call
graph (direct calls, ``self`` dispatch, module-qualified calls,
function-local imports like ``engine._dispatch``'s, address-taken
callables, and class construction — a constructed class contributes
every method in its static MRO, since any of them may run on the
instance once it crosses the boundary).

Every exemption is a rationale-carrying allowlist entry in this module
(:data:`FORK_LOCAL_GLOBALS`, :data:`ENV_ACCESSORS`,
:data:`WRITER_ALLOWLIST`), so "zero unexplained suppressions" is
auditable by reading one file.  The runtime counterpart is
``tools/conc_stress.py``, which hammers the same artifacts from real
concurrent processes (and SIGKILLs them mid-write) — this pass proves
the discipline is *followed*, the stress harness proves the discipline
is *sufficient*.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.lint import Finding
from repro.analysis.semantic.detcov import MUTATORS
from repro.analysis.semantic.modgraph import (
    ClassInfo,
    FunctionInfo,
    ModuleGraph,
    _resolve_relative,
)

CONC001 = "CONC001"
CONC002 = "CONC002"
CONC003 = "CONC003"
CONC004 = "CONC004"
CONC005 = "CONC005"

#: Modules allowed to host the raw atomic-persistence idioms
#: (``os.replace``, ``O_APPEND`` opens).  Everyone else must call them.
ATOMIC_HELPERS = {"repro.util.atomicio"}

#: ``(module, global)`` -> rationale: module-level mutable state that
#: worker processes may legitimately write.  Everything here must be a
#: process-local *memo of a pure function of its key* — identical in
#: every process that computes it, never read back across the fork.
FORK_LOCAL_GLOBALS: dict[tuple[str, str], str] = {
    ("repro.workloads.synthetic", "_TRACE_CACHE"):
        "pure memo keyed by the full frozen model + generation params; "
        "every process regenerates identical traces, nothing flows back",
}

#: Function qualname -> rationale: sanctioned post-fork environment
#: accessors (the config-snapshot path).  Every entry is a narrow,
#: documented knob reader; simulation code must go through one of these
#: rather than reading ``os.environ`` ad hoc, so the env surface that
#: can diverge from the parent's cache key stays enumerable.
ENV_ACCESSORS: dict[str, str] = {
    "repro.util.env_int":
        "the one integer-knob reader: trace capacity and sampling "
        "interval are in the telemetry fingerprint the parent hashed; "
        "det-chain cadence is part of the determinism contract either "
        "side of the fork; stream, effect-check and sanitizer knobs are "
        "non-key debug/observability settings",
    "repro.sim.engine.run_one":
        "the per-spec env bridge: exports RunSpec.stream_dir/.engine as "
        "REPRO_STREAM_DIR/REPRO_ENGINE for the run and restores after",
    "repro.sim.runner._env_flag":
        "the sanctioned boolean-knob reader (REPRO_VERIFY_SKIP)",
    "repro.sim.runner._run_system":
        "lifts REPRO_STREAM_DIR/REPRO_FLEET_DIR around the verify-skip "
        "cross-check so the reference run cannot clobber the stream",
    "repro.sim.system.System.resolve_engine":
        "engine choice is deliberately outside the cache key (all loops "
        "are bit-identical); reading it post-fork is harmless",
    "repro.telemetry.stream.stream_dir":
        "streaming mirrors telemetry to disk, never changes results; "
        "part of the documented non-key env surface",
    "repro.telemetry.trace.enabled":
        "trace on/off is in the telemetry fingerprint the parent hashed "
        "into the cache key, so worker and key agree by construction",
    "repro.telemetry.perfcounters.enabled":
        "host-side perf counters are a pure side channel, excluded from "
        "fingerprints and the cache key by design",
    "repro.telemetry.fleet.fleet_root":
        "fleet registration is host-side bookkeeping, excluded from the "
        "cache key like REPRO_STREAM_DIR",
    "repro.analysis.effectcheck.enabled":
        "runtime effect verification toggle (debug harness, non-key)",
    "repro.analysis.protocol.sanitize_enabled":
        "protocol sanitizer toggle (debug harness, non-key)",
}

#: Function qualname -> rationale: writers allowed to bypass the atomic
#: helper for a *single-writer* artifact with its own crash protocol.
WRITER_ALLOWLIST: dict[str, str] = {
    "repro.telemetry.stream._ActiveSegment.__init__":
        "segment files are single-writer incremental JSONL spills; they "
        "are sealed (and only then trusted) through the atomically "
        "replaced manifest, so an atomic whole-file replace is neither "
        "possible nor needed",
}

#: Lower-case substrings marking a path expression (or its enclosing
#: function) as touching a shared on-disk artifact.  Deliberately
#: token-based: the analyzer cannot evaluate path arithmetic, but every
#: shared artifact in the tree is named by one of these.
SHARED_ARTIFACT_TOKENS = (
    "manifest",
    "index.json",
    "index_name",
    "registry",
    "bench_",
    ".pkl",
    "cache_path",
    "_entry_path",
    "run_log",
    "segment",
)

#: Bare class names whose instances cross the pool/pickle boundary.
PICKLE_ROOTS = ("RunSpec", "SimResult")

#: Methods whose presence certifies a class controls its own pickled
#: form (CONC004 trusts the author's custom payload).
_PICKLE_HOOKS = {"__getstate__", "__reduce__", "__reduce_ex__"}

#: Constructor names producing resources that must not cross a fork.
_HANDLE_CTORS = {"open"}
_LOCK_CTORS = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}
_RNG_CTORS = {"Random", "SystemRandom", "default_rng"}

#: Mutable top-level literals / factory calls that make a module global
#: fork-hazardous when written (reads are fine: fork copies are equal).
_MUTABLE_FACTORIES = {
    "dict", "list", "set", "deque", "defaultdict", "Counter", "OrderedDict",
}

_SET_ANNOTATION_RE = re.compile(r"\b(?:set|frozenset)\b")

_POOL_METHODS = {"submit", "map"}


def _chain(node: ast.AST) -> list[str]:
    """``a.b.c`` -> ``["a", "b", "c"]`` (empty when not a name chain)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return []


def _unparse(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        return ""


def _mutable_globals(mod) -> dict[str, int]:
    """Module-level names bound to mutable containers -> def line."""
    out: dict[str, int] = {}

    def visit(stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            if value is None or not _is_mutable_literal(value):
                return
            for target in targets:
                if isinstance(target, ast.Name):
                    out[target.id] = stmt.lineno
        elif isinstance(stmt, (ast.If, ast.Try)):
            for sub in ast.iter_child_nodes(stmt):
                if isinstance(sub, ast.stmt):
                    visit(sub)

    for stmt in mod.tree.body:
        visit(stmt)
    return out


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _chain(node.func)
        return bool(chain) and chain[-1] in _MUTABLE_FACTORIES
    return False


@dataclass
class _PoolSite:
    """One ``pool.submit``/``pool.map`` call."""

    node: ast.Call
    method: str
    callable: ast.AST
    payload: list[ast.AST] = field(default_factory=list)
    #: Resolved entrypoint qualname (reachability root), when the
    #: callable names a function the graph knows.
    entrypoint: str | None = None


@dataclass
class _FnFacts:
    """Everything the pass needs to know about one function."""

    func: FunctionInfo
    #: Callee qualnames (call graph edges, class ctors pre-expanded).
    edges: set[str] = field(default_factory=set)
    pool_sites: list[_PoolSite] = field(default_factory=list)
    #: ``(global name, line, col)`` writes to module-level mutables.
    global_writes: list[tuple[str, int, int]] = field(default_factory=list)
    #: ``(line, col)`` raw environment reads.
    env_reads: list[tuple[int, int]] = field(default_factory=list)


class _Scan(ast.NodeVisitor):
    """One function's facts, extracted in a single AST walk."""

    def __init__(
        self,
        graph: ModuleGraph,
        func: FunctionInfo,
        module_globals: dict[str, int],
    ) -> None:
        self.graph = graph
        self.func = func
        self.facts = _FnFacts(func=func)
        self.module_globals = module_globals
        self.local_imports = self._local_imports()
        self.pool_aliases = self._pool_aliases()
        self.nested_defs = self._nested_defs()
        self.declared_global: set[str] = {
            name
            for node in ast.walk(func.node)
            if isinstance(node, ast.Global)
            for name in node.names
        }
        self.local_bound = self._locally_bound()
        #: Local name -> unparsed assigned value(s), for one-level token
        #: and resource propagation.
        self.local_values = self._local_values()

    # --------------------------------------------------------- environment

    def _local_imports(self) -> dict[str, str]:
        """Function-body imports (``_dispatch`` imports its runners
        locally to break a cycle; the call graph must still see them)."""
        out: dict[str, str] = {}
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Import):
                for item in node.names:
                    alias = item.asname or item.name.split(".")[0]
                    out[alias] = item.name if item.asname else alias
            elif isinstance(node, ast.ImportFrom):
                src = (
                    _resolve_relative(
                        self.func.module.name, node.level, node.module
                    )
                    if node.level
                    else (node.module or "")
                )
                for item in node.names:
                    if item.name != "*":
                        out[item.asname or item.name] = f"{src}.{item.name}"
        return out

    def _imports(self) -> dict[str, str]:
        merged = dict(self.func.module.imports)
        merged.update(self.local_imports)
        return merged

    def _pool_aliases(self) -> set[str]:
        """Local names bound to a process-pool executor."""
        aliases: set[str] = set()
        for node in ast.walk(self.func.node):
            items: list[tuple[ast.AST, ast.AST | None]] = []
            if isinstance(node, (ast.With, ast.AsyncWith)):
                items = [(i.context_expr, i.optional_vars) for i in node.items]
            elif isinstance(node, ast.Assign):
                items = [(node.value, t) for t in node.targets]
            for value, target in items:
                if not isinstance(target, ast.Name):
                    continue
                if self._is_pool_ctor(value):
                    aliases.add(target.id)
        return aliases

    def _is_pool_ctor(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        chain = _chain(node.func)
        if not chain:
            return False
        if chain[-1] == "ProcessPoolExecutor":
            return True
        if chain[-1] == "Pool":
            head = self._imports().get(chain[0], chain[0])
            return "multiprocessing" in head
        return False

    def _nested_defs(self) -> set[str]:
        return {
            node.name
            for node in ast.walk(self.func.node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not self.func.node
        }

    def _locally_bound(self) -> set[str]:
        bound = set(self.func.params)
        for node in ast.walk(self.func.node):
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, ast.For):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [
                    i.optional_vars for i in node.items if i.optional_vars
                ]
            elif isinstance(node, ast.comprehension):
                targets = [node.target]
            for target in targets:
                bound |= self._binding_names(target)
        return bound - self.declared_global

    @classmethod
    def _binding_names(cls, target: ast.AST) -> set[str]:
        """Names a target *binds* (``x = …``, ``x, y = …``) — not names
        it merely mutates through (``x[k] = …``, ``x.attr = …``)."""
        if isinstance(target, ast.Name):
            return {target.id}
        if isinstance(target, ast.Starred):
            return cls._binding_names(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            out: set[str] = set()
            for elt in target.elts:
                out |= cls._binding_names(elt)
            return out
        return set()

    def _local_values(self) -> dict[str, list[ast.AST]]:
        out: dict[str, list[ast.AST]] = {}
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        out.setdefault(target.id, []).append(node.value)
        return out

    # ---------------------------------------------------------- resolution

    def resolve(self, node: ast.AST):
        """Resolve a callable/class reference to graph info, or None."""
        chain = _chain(node)
        if not chain:
            return None
        if chain[0] == "self":
            if len(chain) == 2 and self.func.cls is not None:
                return self.graph.lookup_method(self.func.cls, chain[1])
            return None
        mod = self.func.module
        if len(chain) == 1:
            found = mod.functions.get(chain[0]) or mod.classes.get(chain[0])
            if found is not None:
                return found
        target = self._imports().get(chain[0])
        if target is not None:
            full = ".".join([target] + chain[1:])
            owner, _, name = full.rpartition(".")
            owner_mod = self.graph.modules.get(owner)
            if owner_mod is not None:
                found = owner_mod.functions.get(name) or owner_mod.classes.get(
                    name
                )
                if found is not None:
                    return found
            if full in self.graph.classes:
                return self.graph.classes[full]
        resolved = self.graph.resolve_class(mod, ".".join(chain))
        if resolved is not None:
            return resolved
        # ``SomeClass.method()`` (classmethods, static helpers): resolve
        # the prefix as a class.  Return the *class*: the call implies
        # instances cross into this code, so every method may run.
        if len(chain) >= 2:
            prefix = self.graph.resolve_class(mod, ".".join(chain[:-1]))
            if prefix is not None and self.graph.lookup_method(
                prefix, chain[-1]
            ) is not None:
                return prefix
        return None

    def _add_edge(self, resolved) -> None:
        if isinstance(resolved, FunctionInfo):
            self.facts.edges.add(resolved.qualname)
        elif isinstance(resolved, ClassInfo):
            # Once an instance exists in worker code any method may run;
            # fold the whole static MRO in (conservative by design).
            for cls in self.graph.mro(resolved):
                for method in cls.methods.values():
                    self.facts.edges.add(method.qualname)

    # ------------------------------------------------------------- walking

    def run(self) -> _FnFacts:
        for node in ast.walk(self.func.node):
            if isinstance(node, ast.Call):
                self._visit_call(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._visit_store(node)
            elif isinstance(node, ast.Attribute):
                self._visit_attribute(node)
            elif isinstance(node, ast.Subscript):
                self._visit_subscript(node)
            elif isinstance(node, ast.Name) and isinstance(
                node.ctx, ast.Load
            ):
                # `from os import environ` style access.
                target = self._imports().get(node.id)
                if target in ("os.environ", "os.getenv"):
                    self.facts.env_reads.append(
                        (node.lineno, node.col_offset)
                    )
        return self.facts

    def _visit_call(self, node: ast.Call) -> None:
        fn = node.func
        chain = _chain(fn)
        # Pool dispatch site?
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in _POOL_METHODS
            and isinstance(fn.value, ast.Name)
            and fn.value.id in self.pool_aliases
            and node.args
        ):
            resolved = self.resolve(node.args[0])
            if resolved is not None:
                self._add_edge(resolved)
            self.facts.pool_sites.append(
                _PoolSite(
                    node=node,
                    method=fn.attr,
                    callable=node.args[0],
                    payload=list(node.args[1:]),
                    entrypoint=(
                        resolved.qualname
                        if isinstance(resolved, FunctionInfo)
                        else None
                    ),
                )
            )
            return
        # Container mutator on a module global (CONC001 write).
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr in MUTATORS
            and isinstance(fn.value, ast.Name)
        ):
            self._record_global_write(fn.value, fn.value.id)
        # Call-graph edge.
        resolved = self.resolve(fn)
        if resolved is not None:
            self._add_edge(resolved)
        # Address-taken callables in argument position.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, (ast.Name, ast.Attribute)):
                taken = self.resolve(arg)
                if isinstance(taken, FunctionInfo):
                    self._add_edge(taken)
        # Raw env read (os.environ.get / os.getenv / environ()).
        if chain[:2] == ["os", "environ"] or chain[:2] == ["os", "getenv"]:
            self.facts.env_reads.append((node.lineno, node.col_offset))

    def _visit_store(self, node) -> None:
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):
                if (
                    target.id in self.declared_global
                    and target.id in self.module_globals
                ):
                    self.facts.global_writes.append(
                        (target.id, target.lineno, target.col_offset)
                    )
                continue
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if isinstance(root, ast.Name):
                self._record_global_write(root, root.id)

    def _record_global_write(self, node: ast.AST, name: str) -> None:
        if name not in self.module_globals:
            return
        if name in self.local_bound:
            return  # shadowed by a parameter/local of the same name
        self.facts.global_writes.append(
            (name, node.lineno, node.col_offset)
        )

    def _visit_attribute(self, node: ast.Attribute) -> None:
        chain = _chain(node)
        if chain[:2] == ["os", "environ"] and len(chain) == 2:
            self.facts.env_reads.append((node.lineno, node.col_offset))

    def _visit_subscript(self, node: ast.Subscript) -> None:
        # Writes through `GLOBAL[k] = v` are caught by _visit_store; this
        # catches `del GLOBAL[k]` which arrives as a Delete target.
        if isinstance(node.ctx, ast.Del) and isinstance(
            node.value, ast.Name
        ):
            self._record_global_write(node.value, node.value.id)

    # ------------------------------------------------- CONC002 site checks

    def describe_resource(self, expr: ast.AST, depth: int = 0) -> str | None:
        """Human description when ``expr`` is a fork-hazardous resource."""
        if isinstance(expr, (ast.List, ast.Tuple)) and depth == 0:
            for elt in expr.elts:
                desc = self.describe_resource(elt, depth=1)
                if desc is not None:
                    return desc
            return None
        if isinstance(expr, ast.Call):
            chain = _chain(expr.func)
            if chain:
                if chain[-1] in _HANDLE_CTORS:
                    return "an open file handle"
                if chain[-1] in _LOCK_CTORS:
                    return f"a live lock ({chain[-1]}())"
                if chain[-1] in _RNG_CTORS or chain[0] == "random":
                    return "a live RNG object"
            return None
        if isinstance(expr, ast.Name):
            for value in self.local_values.get(expr.id, ()):
                desc = self.describe_resource(value, depth=1)
                if desc is not None:
                    return desc
            return self._resource_name_hint(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._resource_name_hint(expr.attr)
        return None

    @staticmethod
    def _resource_name_hint(name: str) -> str | None:
        lowered = name.lower()
        if lowered == "rng" or lowered.endswith("_rng"):
            return "a live RNG object (by naming convention)"
        if lowered == "lock" or lowered.endswith("_lock"):
            return "a live lock (by naming convention)"
        return None


# ------------------------------------------------------------------ CONC004


class _PickleAudit:
    """Type-reachability walk from the pickle roots (CONC004)."""

    def __init__(self, graph: ModuleGraph) -> None:
        self.graph = graph
        self.findings: list[Finding] = []
        self._seen: set[str] = set()

    def run(self) -> list[Finding]:
        for cls in self.graph.all_classes():
            if cls.name in PICKLE_ROOTS:
                self._visit(cls)
        return self.findings

    def _visit(self, cls: ClassInfo) -> None:
        if cls.qualname in self._seen:
            return
        self._seen.add(cls.qualname)
        if _PICKLE_HOOKS & set(cls.methods):
            return  # custom pickled form: the author controls the payload
        for stmt in cls.node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                self._check_annotation(cls, stmt)
        init = cls.methods.get("__init__")
        if init is not None:
            self._check_init(cls, init)

    def _check_annotation(self, cls: ClassInfo, stmt: ast.AnnAssign) -> None:
        name = stmt.target.id
        annotation = _unparse(stmt.annotation)
        if _SET_ANNOTATION_RE.search(annotation):
            self.findings.append(
                Finding(
                    rule=CONC004,
                    path=cls.module.path,
                    line=stmt.lineno,
                    col=stmt.col_offset,
                    message=(
                        f"{cls.name}.{name} is a raw set ({annotation}); "
                        f"its iteration order is process-dependent, so the "
                        f"pickled payload differs between bit-identical "
                        f"runs — use a sorted tuple/list, or give "
                        f"{cls.name} a __getstate__ that normalises it"
                    ),
                )
            )
        for leaf in ast.walk(stmt.annotation):
            dotted = _unparse(leaf) if isinstance(
                leaf, (ast.Name, ast.Attribute)
            ) else None
            if not dotted:
                continue
            resolved = self.graph.resolve_class(cls.module, dotted)
            if resolved is not None:
                self._visit(resolved)
        # field(default_factory=set) and friends.
        if isinstance(stmt.value, ast.Call):
            for kw in stmt.value.keywords:
                if kw.arg != "default_factory":
                    continue
                chain = _chain(kw.value)
                if chain and chain[-1] in ("set", "frozenset"):
                    self.findings.append(
                        Finding(
                            rule=CONC004,
                            path=cls.module.path,
                            line=stmt.lineno,
                            col=stmt.col_offset,
                            message=(
                                f"{cls.name}.{name} defaults to a raw set; "
                                f"set payloads pickle in process-dependent "
                                f"order — use a sorted tuple/list"
                            ),
                        )
                    )
                elif chain:
                    resolved = self.graph.resolve_class(
                        cls.module, ".".join(chain)
                    )
                    if resolved is not None:
                        self._visit(resolved)

    def _check_init(self, cls: ClassInfo, init: FunctionInfo) -> None:
        for node in ast.walk(init.node):
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                value = node.value
                if isinstance(value, ast.Lambda):
                    self.findings.append(
                        Finding(
                            rule=CONC004,
                            path=cls.module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"{cls.name}.{target.attr} holds a lambda; "
                                f"lambdas cannot cross the pool's pickle "
                                f"boundary — use a module-level function "
                                f"or shed it in __getstate__"
                            ),
                        )
                    )
                elif (
                    isinstance(value, ast.Attribute)
                    and isinstance(value.value, ast.Name)
                    and value.value.id == "self"
                    and self.graph.lookup_method(cls, value.attr) is not None
                ):
                    self.findings.append(
                        Finding(
                            rule=CONC004,
                            path=cls.module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"{cls.name}.{target.attr} captures bound "
                                f"method self.{value.attr}; bound methods "
                                f"drag the whole instance through pickle "
                                f"(or fail outright) — store data, not "
                                f"callables"
                            ),
                        )
                    )
                elif isinstance(value, ast.Set) or (
                    isinstance(value, ast.Call)
                    and _chain(value.func)
                    and _chain(value.func)[-1] in ("set", "frozenset")
                ):
                    self.findings.append(
                        Finding(
                            rule=CONC004,
                            path=cls.module.path,
                            line=node.lineno,
                            col=node.col_offset,
                            message=(
                                f"{cls.name}.{target.attr} is a raw set; "
                                f"its pickled order is process-dependent "
                                f"— use a sorted tuple/list"
                            ),
                        )
                    )
                elif isinstance(value, ast.Call):
                    chain = _chain(value.func)
                    if chain:
                        resolved = self.graph.resolve_class(
                            cls.module, ".".join(chain)
                        )
                        if resolved is not None:
                            self._visit(resolved)


# --------------------------------------------------------------------- pass


class ConcurrencyPass:
    """CONC001–CONC005: the fork/persistence process-safety contract."""

    ids = (CONC001, CONC002, CONC003, CONC004, CONC005)

    def run(self, graph: ModuleGraph) -> list[Finding]:
        facts: dict[str, _FnFacts] = {}
        globals_by_module = {
            name: _mutable_globals(mod)
            for name, mod in graph.modules.items()
        }
        scans: dict[str, _Scan] = {}
        for func in graph.all_functions():
            scan = _Scan(
                graph, func, globals_by_module.get(func.module.name, {})
            )
            scans[func.qualname] = scan
            facts[func.qualname] = scan.run()

        reachable = self._reachable(facts)
        findings: list[Finding] = []
        findings.extend(self._check_globals(facts, reachable))
        findings.extend(self._check_pool_sites(scans, facts))
        findings.extend(self._check_persistence(graph, scans, facts))
        findings.extend(_PickleAudit(graph).run())
        findings.extend(self._check_env(facts, reachable))
        return findings

    # -------------------------------------------------------- reachability

    @staticmethod
    def _reachable(facts: dict[str, _FnFacts]) -> set[str]:
        """Function qualnames reachable from any pool entrypoint."""
        roots = [
            site.entrypoint
            for fn in facts.values()
            for site in fn.pool_sites
            if site.entrypoint is not None
        ]
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            qualname = stack.pop()
            if qualname in seen:
                continue
            seen.add(qualname)
            fn = facts.get(qualname)
            if fn is None:
                continue
            stack.extend(fn.edges - seen)
        return seen

    # ------------------------------------------------------------- CONC001

    @staticmethod
    def _check_globals(
        facts: dict[str, _FnFacts], reachable: set[str]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for qualname in sorted(reachable):
            fn = facts.get(qualname)
            if fn is None:
                continue
            for name, line, col in fn.global_writes:
                if (fn.func.module.name, name) in FORK_LOCAL_GLOBALS:
                    continue
                findings.append(
                    Finding(
                        rule=CONC001,
                        path=fn.func.module.path,
                        line=line,
                        col=col,
                        message=(
                            f"{qualname.rsplit('.', 1)[-1]}() writes "
                            f"module global {name!r} and is reachable from "
                            f"a worker entrypoint; a forked worker mutates "
                            f"its own copy, so the write is lost (or reads "
                            f"stale pre-fork state) — pass state "
                            f"explicitly, or allowlist a pure per-process "
                            f"memo in FORK_LOCAL_GLOBALS with rationale"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------------------- CONC002

    @staticmethod
    def _check_pool_sites(
        scans: dict[str, _Scan], facts: dict[str, _FnFacts]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for qualname in sorted(facts):
            fn = facts[qualname]
            scan = scans[qualname]
            for site in fn.pool_sites:
                findings.extend(
                    ConcurrencyPass._check_site(scan, fn, site)
                )
        return findings

    @staticmethod
    def _check_site(
        scan: _Scan, fn: _FnFacts, site: _PoolSite
    ) -> list[Finding]:
        findings: list[Finding] = []
        path = fn.func.module.path
        target = site.callable
        where = f"pool.{site.method}() in {fn.func.name}()"

        def add(message: str, node: ast.AST) -> None:
            findings.append(
                Finding(
                    rule=CONC002,
                    path=path,
                    line=node.lineno,
                    col=node.col_offset,
                    message=message,
                )
            )

        if isinstance(target, ast.Lambda):
            add(
                f"{where} ships a lambda across the fork/pickle boundary; "
                f"lambdas are unpicklable — use a module-level function",
                target,
            )
        else:
            chain = _chain(target)
            if chain and chain[0] == "self":
                add(
                    f"{where} ships bound method "
                    f"{'.'.join(chain)} across the pool boundary; the "
                    f"whole instance is captured at fork/pickle time — "
                    f"use a module-level function taking explicit state",
                    target,
                )
            elif (
                len(chain) == 1 and chain[0] in scan.nested_defs
            ):
                add(
                    f"{where} ships nested function {chain[0]}(); a "
                    f"closure is unpicklable and silently captures "
                    f"enclosing state — hoist it to module level",
                    target,
                )
        for arg in site.payload:
            desc = scan.describe_resource(arg)
            if desc is not None:
                add(
                    f"{where} passes {desc} to the worker; resources "
                    f"captured at fork time are duplicated or stale — "
                    f"open/construct them inside the worker (RNG: inject "
                    f"a seed and reseed per worker)",
                    arg,
                )
        return findings

    # ------------------------------------------------------------- CONC003

    @staticmethod
    def _check_persistence(
        graph: ModuleGraph,
        scans: dict[str, _Scan],
        facts: dict[str, _FnFacts],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for qualname in sorted(facts):
            fn = facts[qualname]
            if fn.func.module.name in ATOMIC_HELPERS:
                continue
            if qualname in WRITER_ALLOWLIST:
                continue
            scan = scans[qualname]
            for node in ast.walk(fn.func.node):
                if not isinstance(node, ast.Call):
                    continue
                finding = ConcurrencyPass._check_write_call(
                    scan, fn, node
                )
                if finding is not None:
                    findings.append(finding)
        # Module-level writes (rare, but a top-level os.replace would
        # otherwise slip through every function-scoped scan).
        for mod_name in sorted(graph.modules):
            if mod_name in ATOMIC_HELPERS:
                continue
            mod = graph.modules[mod_name]
            in_function = {
                id(n)
                for fn in list(mod.functions.values())
                + [m for c in mod.classes.values() for m in c.methods.values()]
                for n in ast.walk(fn.node)
            }
            for node in ast.walk(mod.tree):
                if isinstance(node, ast.Call) and id(node) not in in_function:
                    chain = _chain(node.func)
                    if chain == ["os", "replace"]:
                        findings.append(
                            ConcurrencyPass._replace_finding(mod.path, node)
                        )
        return findings

    @staticmethod
    def _replace_finding(path: str, node: ast.Call) -> Finding:
        return Finding(
            rule=CONC003,
            path=path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                "raw os.replace outside repro.util.atomicio; the atomic "
                "write-fsync-replace idiom lives in one audited helper "
                "(like DET002's hostclock) — call atomicio.write_bytes/"
                "write_text/write_json instead"
            ),
        )

    @staticmethod
    def _check_write_call(
        scan: _Scan, fn: _FnFacts, node: ast.Call
    ) -> Finding | None:
        chain = _chain(node.func)
        if chain == ["os", "replace"]:
            return ConcurrencyPass._replace_finding(fn.func.module.path, node)
        path_expr: ast.AST | None = None
        kind = None
        if chain and chain[-1] == "open" and len(chain) <= 2:
            if chain == ["os", "open"]:
                flags = " ".join(_unparse(a) for a in node.args[1:2])
                if not any(
                    token in flags
                    for token in ("O_WRONLY", "O_RDWR", "O_APPEND", "O_CREAT")
                ):
                    return None
            elif len(chain) == 1:
                mode = ""
                if len(node.args) > 1 and isinstance(
                    node.args[1], ast.Constant
                ):
                    mode = str(node.args[1].value)
                for kw in node.keywords:
                    if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
                        mode = str(kw.value.value)
                if not any(ch in mode for ch in "wax+"):
                    return None
            else:
                return None
            path_expr = node.args[0] if node.args else None
            kind = "write-mode open"
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes")
        ):
            receiver = node.func.value
            if isinstance(receiver, ast.Name):
                target = scan._imports().get(receiver.id, "")
                if target in ATOMIC_HELPERS:
                    return None
            path_expr = receiver
            kind = f".{node.func.attr}()"
        if path_expr is None or kind is None:
            return None
        token = ConcurrencyPass._artifact_token(scan, fn, path_expr)
        if token is None:
            return None
        return Finding(
            rule=CONC003,
            path=fn.func.module.path,
            line=node.lineno,
            col=node.col_offset,
            message=(
                f"{kind} touches shared artifact path (token {token!r}) "
                f"outside repro.util.atomicio; concurrent writers can "
                f"tear it — route through atomicio.write_*/append_* "
                f"(or add a WRITER_ALLOWLIST rationale for a "
                f"single-writer protocol)"
            ),
        )

    @staticmethod
    def _artifact_token(
        scan: _Scan, fn: _FnFacts, path_expr: ast.AST
    ) -> str | None:
        """The shared-artifact token the path (or context) mentions."""
        descs = [_unparse(path_expr), fn.func.qualname]
        for leaf in ast.walk(path_expr):
            if isinstance(leaf, ast.Name):
                descs.extend(
                    _unparse(v) for v in scan.local_values.get(leaf.id, ())
                )
        haystack = " ".join(descs).lower()
        for token in SHARED_ARTIFACT_TOKENS:
            if token in haystack:
                return token
        return None

    # ------------------------------------------------------------- CONC005

    @staticmethod
    def _check_env(
        facts: dict[str, _FnFacts], reachable: set[str]
    ) -> list[Finding]:
        findings: list[Finding] = []
        for qualname in sorted(reachable):
            fn = facts.get(qualname)
            if fn is None or qualname in ENV_ACCESSORS:
                continue
            seen_lines: set[int] = set()
            for line, col in sorted(fn.env_reads):
                if line in seen_lines:
                    continue
                seen_lines.add(line)
                findings.append(
                    Finding(
                        rule=CONC005,
                        path=fn.func.module.path,
                        line=line,
                        col=col,
                        message=(
                            f"{qualname.rsplit('.', 1)[-1]}() reads "
                            f"os.environ and is reachable from a worker "
                            f"entrypoint; post-fork env state can diverge "
                            f"from what the parent hashed into the cache "
                            f"key — snapshot config before the fork, or "
                            f"register a sanctioned accessor in "
                            f"ENV_ACCESSORS with rationale"
                        ),
                    )
                )
        return findings
