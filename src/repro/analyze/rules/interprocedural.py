"""REP008/REP009 — whole-program rules over the project call graph.

Both rules run in ``check_project`` against a
:class:`repro.analyze.graph.ProjectGraph`; they exist to catch exactly
the violations the per-file rules structurally cannot:

* REP008: an unseeded-RNG draw or wall-clock read that happens inside a
  helper function — possibly in a non-physics module, possibly with its
  own REP001 pragma — and *flows into physics code* through a call
  chain.
* REP009: simmpi protocol ops whose tag is a function *parameter*
  (invisible to REP002's per-call tag keys), resolved to concrete tag
  values at every call site; and collectives reached through helper
  calls under rank-conditional branches.  Findings carry the full call
  chain.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analyze.core import Finding, ModuleContext, Rule, register
from repro.analyze.rules.determinism import _PHYSICS_DIRS, classify_nondet_source
from repro.analyze.rules.protocol import (
    _RECV_METHODS,
    _SEND_METHODS,
    _call_tag,
    _collective_name,
    _collectives_in,
    _mentions_rank,
    implements_transport,
)

#: Modules whose internals may legitimately read clocks (timers live
#: here by design); taint never originates in, nor propagates through,
#: these — otherwise every ``obs.phase`` in physics code would flag.
_TRUSTED_PREFIXES = ("repro.observe",)


def _is_trusted(modname: str) -> bool:
    return any(
        modname == p or modname.startswith(p + ".") for p in _TRUSTED_PREFIXES
    )


def _chain_text(head: str, chain: tuple[str, ...]) -> str:
    return " -> ".join((head, *chain))


@register
class InterproceduralTaintRule(Rule):
    code = "REP008"
    name = "cross-function-nondeterminism"
    summary = (
        "call chain from physics code reaches an unseeded-RNG or "
        "wall-clock source in another function"
    )
    explanation = """\
REP001 flags nondeterminism sources at the line that executes them, one
file at a time.  That misses the interprocedural shape: a helper in a
non-physics module reads ``time.time()`` (legal there under REP001) or
draws from the global RNG under a local pragma, and physics code in
``md/``, ``kmc/`` or ``core/`` calls the helper — the nondeterministic
value still flows into trajectories.

REP008 builds the project call graph, marks every function that
executes a REP001-class source (global-state RNG anywhere, wall-clock
anywhere outside the trusted ``repro.observe`` timing layer), closes
the marking backwards over resolved call edges, and flags each call
site in a physics module whose resolved target is marked.  The finding
message carries the witness chain down to the primal source, e.g.::

    repro.util.jitter -> wall-clock read time.time (src/repro/util.py:12)

Only statically resolved calls participate (plain names, imported
functions, ``self.`` methods), so the rule is sound over the decidable
slice of the graph.  Suppress with
``# repro: noqa(REP008) <why this value never reaches trajectories>``.
"""

    def check_project(self, graph) -> Iterable[Finding]:
        marks: dict[str, tuple[str, ...]] = {}
        for qname, fn in graph.functions.items():
            modname = graph.module_names.get(fn.module.rel_path, "")
            if _is_trusted(modname):
                continue
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                imports = graph.import_maps.get(fn.module.rel_path)
                target = imports.resolve_call(node.func) if imports else None
                if target is None:
                    continue
                desc = classify_nondet_source(graph.deref(target))
                if desc is not None:
                    marks[qname] = (
                        f"{desc} ({fn.module.rel_path}:{node.lineno})",
                    )
                    break
        tainted = graph.transitive_closure(marks)
        # Trusted modules absorb taint: a chain that passes through
        # repro.observe is a timing concern, not a physics one.
        for qname in list(tainted):
            fn = graph.functions.get(qname)
            if fn is None:
                continue
            if _is_trusted(graph.module_names.get(fn.module.rel_path, "")):
                del tainted[qname]

        for module in graph.modules:
            if not module.in_dirs(*_PHYSICS_DIRS):
                continue
            for call, class_name in graph.iter_calls_with_owner(module):
                callee = graph.resolve_call(module, call, class_name=class_name)
                if callee is None or callee.qname not in tainted:
                    continue
                chain = _chain_text(callee.qname, tainted[callee.qname])
                yield module.finding(
                    self.code,
                    call,
                    "call chain from physics code reaches a nondeterminism "
                    f"source: {chain}; thread a seeded Generator (or a "
                    "pre-read timestamp) through instead",
                )


def _value_key(graph, module: ModuleContext, expr: ast.expr | None):
    """Value-level pairing key for a tag expression, or ``None``.

    Constants resolve to their integer *value* across modules (so
    ``TAG_GET`` pairs with a literal ``1000`` and with
    ``comm.TAG_GET``); offset forms ``BASE + sector`` pair by base
    value, mirroring REP002's name-level treatment.  Uppercase names
    with no known value fall back to name pairing; everything else is
    dynamic (``None``).
    """
    if expr is None:
        return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        return _value_key(graph, module, expr.left)
    value = graph.resolve_constant(module, expr)
    if value is not None:
        return ("val", value)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return ("val", expr.value)
    if isinstance(expr, ast.Name) and expr.id.isupper():
        return ("const", expr.id)
    if (
        isinstance(expr, ast.Attribute)
        and expr.attr.isupper()
        and expr.attr not in ("ANY_TAG", "ANY_SOURCE")
    ):
        return ("const", expr.attr)
    return None


def _tag_param(expr: ast.expr | None, params: list[str]) -> str | None:
    """The function parameter a tag expression is built from, if any."""
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        return _tag_param(expr.left, params)
    if isinstance(expr, ast.Name) and expr.id in params:
        return expr.id
    return None


@register
class InterproceduralProtocolRule(Rule):
    code = "REP009"
    name = "cross-function-protocol"
    summary = (
        "parameterised send/recv tag unpaired after call-site resolution, "
        "or rank-conditional call chain into a collective"
    )
    explanation = """\
REP002 pairs send/recv tags per call expression, so a helper that takes
the tag as a parameter (``def ship(comm, dest, tag, x): comm.send(dest,
tag, x)``) looks dynamic and silently mutes the whole check; and a
collective buried inside a helper called under ``if rank == 0`` is
invisible to the per-file branch check.

REP009 resolves both through the project call graph:

1. Parameterised tags: for every send/recv/probe whose tag expression
   is a function parameter, each resolved call site substitutes its
   argument and the tag is resolved to a concrete *value* via the
   project-wide constant table (``TAG_GET = 1000`` pairs with a literal
   ``1000``; ``BASE + sector`` offset forms pair by base value).  A
   substituted send value with no matching recv/probe anywhere — and
   vice versa — is flagged at the call site, with the call chain and
   resolved value in the message.  As in REP002, a genuinely dynamic
   tag on the opposite side (``status.tag``) mutes that direction.

2. Rank-conditional collective reachability: functions that execute a
   collective (directly or transitively) are computed by fixpoint; a
   call under an ``if ...rank...`` branch that resolves into that set is
   flagged with the chain to the collective, unless the opposite branch
   reaches the same collective (the root/leaf bcast idiom).

The transport and communicator modules are exempt as in REP002.  Suppress
elsewhere with ``# repro: noqa(REP009) <why this pairs/every rank
reaches it>``.
"""

    def check_project(self, graph) -> Iterable[Finding]:
        direct_send_keys: set = set()
        direct_recv_keys: set = set()
        # (key, finding) for ops whose tag came from a parameter.
        sub_sends: list[tuple[object, Finding]] = []
        sub_recvs: list[tuple[object, Finding]] = []
        dynamic_send = False
        dynamic_recv = False

        for fn in graph.functions.values():
            if implements_transport(fn.module):
                continue
            for call in ast.walk(fn.node):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                ):
                    continue
                method = call.func.attr
                if method in _SEND_METHODS:
                    is_send = True
                elif method in _RECV_METHODS:
                    is_send = False
                else:
                    continue
                tag, present = _call_tag(call)
                if not present:
                    if not is_send:
                        dynamic_recv = True  # ANY_TAG default
                    continue
                param = _tag_param(tag, fn.params)
                if param is not None:
                    subs, any_dynamic = self._substitute(
                        graph, fn, call, method, param, is_send
                    )
                    if is_send:
                        sub_sends.extend(subs)
                        dynamic_send |= any_dynamic
                    else:
                        sub_recvs.extend(subs)
                        dynamic_recv |= any_dynamic
                    continue
                key = _value_key(graph, fn.module, tag)
                if key is None:
                    if is_send:
                        dynamic_send = True
                    else:
                        dynamic_recv = True
                elif is_send:
                    direct_send_keys.add(key)
                else:
                    direct_recv_keys.add(key)

        send_keys = direct_send_keys | {k for k, _ in sub_sends}
        recv_keys = direct_recv_keys | {k for k, _ in sub_recvs}
        if not dynamic_recv:
            for key, finding in sub_sends:
                if key not in recv_keys:
                    yield finding
        if not dynamic_send:
            for key, finding in sub_recvs:
                if key not in send_keys:
                    yield finding

        yield from self._check_rank_branches(graph)

    # ------------------------------------------------------------------
    # Parameterised tag substitution
    # ------------------------------------------------------------------
    def _substitute(
        self, graph, fn, op_call: ast.Call, method: str, param: str, is_send: bool
    ) -> tuple[list[tuple[object, Finding]], bool]:
        """Resolve one parameterised op at every call site of ``fn``.

        Returns ``(substituted entries, saw_dynamic_argument)``.
        """
        idx = fn.params.index(param)
        if fn.class_name is not None and fn.params and fn.params[0] in (
            "self",
            "cls",
        ):
            idx -= 1  # resolved self.method() calls pass no receiver
        entries: list[tuple[object, Finding]] = []
        any_dynamic = False
        direction = "send" if is_send else "recv/probe"
        opposite = "recv/probe" if is_send else "send"
        for caller, site in graph.callers.get(fn.qname, []):
            arg: ast.expr | None = None
            for kw in site.keywords:
                if kw.arg == param:
                    arg = kw.value
                    break
            if arg is None and 0 <= idx < len(site.args):
                arg = site.args[idx]
            key = _value_key(graph, caller.module, arg)
            if key is None:
                any_dynamic = True
                continue
            value = key[1]
            entries.append(
                (
                    key,
                    caller.module.finding(
                        self.code,
                        site,
                        f"{direction} tag {value!r} (via parameter "
                        f"'{param}' of {fn.qname}.{method}: "
                        f"{_chain_text(caller.qname, (fn.qname,))}) has no "
                        f"matching {opposite} anywhere in the scanned paths",
                    ),
                )
            )
        return entries, any_dynamic

    # ------------------------------------------------------------------
    # Rank-conditional collective reachability
    # ------------------------------------------------------------------
    def _collective_closure(self, graph) -> dict[str, dict[str, tuple[str, ...]]]:
        """qname -> {collective name -> witness chain} by fixpoint."""
        reach: dict[str, dict[str, tuple[str, ...]]] = {}
        for qname, fn in graph.functions.items():
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    name = _collective_name(node)
                    if name is not None:
                        reach.setdefault(qname, {}).setdefault(
                            name,
                            (f"{name}() ({fn.module.rel_path}:{node.lineno})",),
                        )
        changed = True
        while changed:
            changed = False
            for qname, fn in graph.functions.items():
                mine = reach.setdefault(qname, {})
                for callee in fn.callees:
                    for cname, chain in reach.get(callee, {}).items():
                        if cname not in mine:
                            mine[cname] = (callee, *chain)
                            changed = True
        return {q: c for q, c in reach.items() if c}

    def _check_rank_branches(self, graph) -> Iterator[Finding]:
        reach = self._collective_closure(graph)

        def branch_reach(
            module: ModuleContext, nodes: list[ast.stmt], class_name: str | None
        ) -> set[str]:
            names = set(_collectives_in(nodes))
            for stmt in nodes:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        callee = graph.resolve_call(
                            module, node, class_name=class_name
                        )
                        if callee is not None:
                            names |= set(reach.get(callee.qname, {}))
            return names

        for module in graph.modules:
            if implements_transport(module):
                continue
            for branch_if, class_name in self._rank_ifs(module):
                for body, other in (
                    (branch_if.body, branch_if.orelse),
                    (branch_if.orelse, branch_if.body),
                ):
                    other_names = branch_reach(module, other, class_name)
                    for stmt in body:
                        for node in ast.walk(stmt):
                            if not isinstance(node, ast.Call):
                                continue
                            callee = graph.resolve_call(
                                module, node, class_name=class_name
                            )
                            if callee is None:
                                continue
                            for cname, chain in sorted(
                                reach.get(callee.qname, {}).items()
                            ):
                                if cname in other_names:
                                    continue
                                yield module.finding(
                                    self.code,
                                    node,
                                    "call chain under a rank-conditional "
                                    f"branch reaches collective '{cname}': "
                                    f"{_chain_text(callee.qname, chain)}; "
                                    "ranks not taking this branch will "
                                    "deadlock",
                                )

    @staticmethod
    def _rank_ifs(
        module: ModuleContext,
    ) -> Iterator[tuple[ast.If, str | None]]:
        """Every ``if`` whose test mentions a rank, with class context."""

        def walk(nodes: list[ast.stmt], class_name: str | None):
            for node in nodes:
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, node.name)
                    continue
                for sub in ast.walk(node):
                    if isinstance(sub, ast.If) and _mentions_rank(sub.test):
                        yield sub, class_name

        yield from walk(module.tree.body, None)
