"""REP002 — simmpi protocol discipline.

Two statically visible deadlock shapes, checked over the project call
graph (a per-file finding is the call chain of length 0):

* a send (or recv/probe) tag that never pairs up anywhere in the
  scanned set, also when the tag reaches the op as a helper's
  parameter — the receiver blocks forever;
* a collective (or window fence/put) reached, directly or through
  helper calls, only under a rank-conditional branch — the other ranks
  block in the collective.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analyze.core import Finding, ModuleContext, Rule, register

_SEND_METHODS = {"send", "isend"}
_RECV_METHODS = {"recv", "irecv", "probe", "iprobe"}

#: Methods that are collective over the whole communicator: every rank
#: must reach them or the world deadlocks.
_COLLECTIVES = {
    "barrier",
    "bcast",
    "gather",
    "allgather",
    "allreduce",
    "exchange",
    "win_create",
    "fence",
}

#: The modules that *implement* the transport and the communicator: their
#: internals legitimately branch on rank and use reserved tags, so
#: REP002 skips them.  Everything else under
#: ``runtime/`` — the middleware layers, the sanitizer, the scheduler —
#: is a caller of the communicator like any engine and is scanned.
_TRANSPORT_FILES = (
    "runtime/transport.py",
    "runtime/simmpi.py",
    "runtime/procbackend.py",
)


def implements_transport(module: ModuleContext) -> bool:
    return module.rel_path.endswith(_TRANSPORT_FILES)


#: ``.put`` is only a one-sided window op when the receiver looks like a
#: window; bare ``q.put`` (queues) must not trip the rule.
_WINDOW_HINTS = ("win", "window")

#: Wildcards: a receive with one of these tags may match any send.
_WILDCARDS = ("ANY_TAG", "ANY_SOURCE")


def _tag_keys(graph, module: ModuleContext, expr: ast.expr | None) -> set:
    """Pairing keys of a tag expression; empty when it is dynamic.

    A literal or a resolved module-level constant pairs by *value*
    across modules (``TAG_GET = 1000`` pairs with a literal ``1000``);
    an uppercase name also pairs by *name*, so a constant pairs with
    itself whether or not the other side resolves it.  ``BASE + sector``
    offset forms pair by their base.  Anything else (a computed tag,
    ``status.tag``, the ANY_TAG wildcard) may match any tag.
    """
    while isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        expr = expr.left
    name = getattr(expr, "id", getattr(expr, "attr", None))
    if expr is None or name in _WILDCARDS:
        return set()
    keys = {("name", name)} if isinstance(name, str) and name.isupper() else set()
    value = (
        expr.value
        if isinstance(expr, ast.Constant)
        else graph.resolve_constant(module, expr)
    )
    if isinstance(value, (int, str)):
        keys.add(value)
    return keys


def _show(keys: set):
    """The tag as a message names it: its value, else its name."""
    values = [k for k in keys if not isinstance(k, tuple)]
    return values[0] if values else next(iter(keys))[1]


def _tag_param(expr: ast.expr | None, params: list[str]) -> str | None:
    """The function parameter a tag expression is built from, if any."""
    while isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        expr = expr.left
    if isinstance(expr, ast.Name) and expr.id in params:
        return expr.id
    return None


def _call_tag(call: ast.Call) -> tuple[ast.expr | None, bool]:
    """(tag expression, present) of one send/recv/probe call."""
    for kw in call.keywords:
        if kw.arg == "tag":
            return kw.value, True
    # RankComm signatures: send(dest, tag, payload), recv(source, tag),
    # probe(source, tag) — the tag is the second positional argument.
    if len(call.args) >= 2:
        return call.args[1], True
    return None, False


def _mentions_rank(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and node.attr == "rank":
            return True
        if isinstance(node, ast.Name) and node.id == "rank":
            return True
    return False


def _collective_name(call: ast.Call) -> str | None:
    if not isinstance(call.func, ast.Attribute):
        return None
    name = call.func.attr
    if name in _COLLECTIVES:
        return name
    if name == "put":
        recv = call.func.value
        text = ""
        if isinstance(recv, ast.Name):
            text = recv.id
        elif isinstance(recv, ast.Attribute):
            text = recv.attr
        if any(h in text.lower() for h in _WINDOW_HINTS):
            return "put"
    return None


@register
class ProtocolRule(Rule):
    code = "REP002"
    name = "simmpi-protocol"
    summary = (
        "unpaired send/recv tag, or collective call under a rank-conditional "
        "branch"
    )
    explanation = """\
simmpi point-to-point messages pair by tag; collectives require every
rank to participate.  Two shapes are statically rejectable, both over
the project call graph:

1. Tag pairing: tag keys are collected from every ``.send``/``.isend``
   and ``.recv``/``.probe`` in the scanned set.  Literals and resolved
   module-level constants pair by value across modules, uppercase
   constants also by name, and ``TAG_GET + sector`` offset forms by
   their base.  A tag that is a function *parameter* is substituted at
   every resolved call site of the helper (``def ship(comm, dest, tag,
   x): comm.send(dest, tag, x)``), and the finding names the chain.  A
   send tag with no matching receive anywhere (and vice versa) is
   flagged, unless a dynamic tag (``status.tag``, the ANY_TAG default,
   a helper with no resolved caller) appears on the other side, which
   makes pairing statically undecidable and mutes that direction.

2. Rank-conditional collectives: ``barrier``/``bcast``/``gather``/
   ``allreduce``/``exchange``/``win_create``/``fence`` (and
   ``<win>.put``) reached under ``if rank == ...``, directly or through
   a chain of helper calls, deadlock the other ranks.  A collective in
   one branch is accepted when the opposite branch reaches the *same*
   collective (the root/leaf bcast idiom).

The transport and communicator modules (``runtime/transport.py``,
``runtime/simmpi.py``, ``runtime/procbackend.py``) are exempt: they
*implement* the protocol, so their internals legitimately branch on
rank.  Suppress elsewhere with
``# repro: noqa(REP002) <why every rank reaches this call>``.
"""

    def check_project(self, graph) -> Iterable[Finding]:
        reach = {
            name: graph.transitive_closure(marks)
            for name, marks in self._direct_collectives(graph).items()
        }
        ops: dict[bool, list] = {True: [], False: []}  # is_send -> sites
        dynamic = {True: False, False: False}
        for module in graph.modules:
            if implements_transport(module):
                continue
            for fn, node in graph.owned_nodes(module):
                if isinstance(node, ast.If) and _mentions_rank(node.test):
                    yield from self._check_branches(graph, module, fn, node, reach)
                if not (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                ):
                    continue
                method = node.func.attr
                if method not in _SEND_METHODS and method not in _RECV_METHODS:
                    continue
                is_send = method in _SEND_METHODS
                tag, present = _call_tag(node)
                if not present:  # recv: the ANY_TAG default; send: not simmpi's
                    dynamic[False] |= not is_send
                    continue
                for keys, *where in self._tag_sites(graph, module, fn, node, tag):
                    if keys:
                        ops[is_send].append((keys, *where))
                    else:
                        dynamic[is_send] = True
        for is_send, direction, opposite in (
            (True, "send", "recv/probe"),
            (False, "recv/probe", "send"),
        ):
            if dynamic[not is_send]:
                continue
            partners = set().union(*(keys for keys, *_ in ops[not is_send]))
            for keys, site_module, site, via in ops[is_send]:
                if not keys & partners:
                    yield site_module.finding(
                        self.code,
                        site,
                        f"{direction} tag {_show(keys)!r}{via} has no matching "
                        f"{opposite} anywhere in the scanned paths",
                    )

    @staticmethod
    def _tag_sites(graph, module, fn, op: ast.Call, tag):
        """``(keys, module, node, via)`` for each place a tag is fixed.

        A direct tag is fixed at the op itself; a parameter tag at every
        resolved call site of the enclosing helper (no call site at all
        is one dynamic site).
        """
        param = _tag_param(tag, fn.params) if fn is not None else None
        if param is None:
            return [(_tag_keys(graph, module, tag), module, op, "")]
        idx = fn.params.index(param)
        if fn.class_name is not None and fn.params[0] in ("self", "cls"):
            idx -= 1  # resolved self.method() calls pass no receiver
        sites = []
        for caller, site in graph.callers.get(fn.qname, []):
            arg = next((kw.value for kw in site.keywords if kw.arg == param), None)
            if arg is None and 0 <= idx < len(site.args):
                arg = site.args[idx]
            via = (
                f" (via parameter '{param}' of {fn.qname}.{op.func.attr}: "
                f"{caller.qname} -> {fn.qname})"
            )
            sites.append((_tag_keys(graph, caller.module, arg), caller.module, site, via))
        return sites or [(set(), module, op, "")]

    @staticmethod
    def _direct_collectives(graph) -> dict[str, dict[str, tuple[str, ...]]]:
        """collective name -> {qname of a function calling it: witness}."""
        out: dict[str, dict[str, tuple[str, ...]]] = {}
        for qname, fn in graph.functions.items():
            for node in ast.walk(fn.node):
                name = _collective_name(node) if isinstance(node, ast.Call) else None
                if name is not None:
                    out.setdefault(name, {}).setdefault(
                        qname, (f"{name}() ({fn.module.rel_path}:{node.lineno})",)
                    )
        return out

    def _check_branches(self, graph, module, fn, branch_if: ast.If, reach):
        """Collectives one side of a rank test reaches and the other not."""
        class_name = fn and fn.class_name

        def reached(call: ast.Call) -> dict[str, tuple[str, ...]]:
            """collective name -> chain (empty when called directly)."""
            name = _collective_name(call)
            out = {name: ()} if name is not None else {}
            callee = graph.resolve_call(module, call, class_name)
            for cname, closure in reach.items():
                if callee is not None and callee.qname in closure:
                    out.setdefault(cname, (callee.qname, *closure[callee.qname]))
            return out

        def calls(stmts):
            for stmt in stmts:
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        yield node

        for body, other in (
            (branch_if.body, branch_if.orelse),
            (branch_if.orelse, branch_if.body),
        ):
            other_names = {n for call in calls(other) for n in reached(call)}
            for call in calls(body):
                for cname, chain in sorted(reached(call).items()):
                    if cname in other_names:
                        continue
                    via = f" (via {' -> '.join(chain)})" if chain else ""
                    yield module.finding(
                        self.code,
                        call,
                        f"collective '{cname}' under a rank-conditional "
                        f"branch{via}: ranks not taking this branch will "
                        "deadlock in the collective",
                    )
