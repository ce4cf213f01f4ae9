"""REP002 — simmpi protocol discipline.

Two statically visible deadlock shapes:

* a send (or recv/probe) tag that never pairs up anywhere in the
  scanned set — the receiver blocks forever;
* a collective (or window fence/put) executed only under a
  rank-conditional branch — the other ranks block in the collective.
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
#: internals legitimately branch on rank and use reserved tags, so the
#: protocol rules (REP002, REP009) skip them.  Everything else under
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


def _tag_key(node: ast.expr | None):
    """A pairing key for a tag expression, or ``None`` when dynamic.

    Literal ints/strings pair by value; uppercase constants (``TAG_GET``,
    ``mod.TAG_PUT``) pair by name, including ``TAG_GET + sector`` offset
    forms which pair by their base constant.  Anything else (a computed
    tag, ``status.tag``, the ANY_TAG default) is dynamic: it may match
    any tag, so pairing is not statically decidable.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, str)):
        return ("lit", node.value)
    if isinstance(node, ast.Name) and node.id.isupper():
        return ("const", node.id)
    if (
        isinstance(node, ast.Attribute)
        and node.attr.isupper()
        and node.attr not in ("ANY_TAG", "ANY_SOURCE")
    ):
        return ("const", node.attr)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _tag_key(node.left)
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


def _collectives_in(nodes: list[ast.stmt]) -> set[str]:
    names: set[str] = set()
    for stmt in nodes:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                name = _collective_name(node)
                if name is not None:
                    names.add(name)
    return names


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
rank to participate.  Two shapes are statically rejectable:

1. Tag pairing (cross-module): tag keys are collected from every
   ``.send``/``.isend`` and ``.recv``/``.probe`` in the scanned set.
   Literal tags pair by value, uppercase constants (``TAG_GET``, also in
   ``TAG_GET + sector`` offset form) pair by base name.  A send tag with
   no matching receive anywhere (and vice versa) is flagged — unless a
   dynamic tag (``status.tag``, the ANY_TAG default) appears on the
   other side, which makes pairing statically undecidable and mutes the
   check for that direction.

2. Rank-conditional collectives (per module): ``barrier``/``bcast``/
   ``gather``/``allreduce``/``exchange``/``win_create``/``fence`` (and
   ``<win>.put``) reached only under ``if rank == ...`` deadlock the
   other ranks.  A collective in one branch is accepted when the
   opposite branch calls the *same* collective (the root/leaf bcast
   idiom).

The transport and communicator modules (``runtime/transport.py``,
``runtime/simmpi.py``, ``runtime/procbackend.py``) are exempt: they
*implement* the protocol, so their internals legitimately branch on
rank.  Suppress elsewhere with
``# repro: noqa(REP002) <why every rank reaches this call>``.
"""

    def __init__(self) -> None:
        self._sends: dict[tuple, Finding] = {}
        self._recvs: dict[tuple, Finding] = {}
        self._dynamic_send = False
        self._dynamic_recv = False

    def check_module(self, module: ModuleContext) -> Iterable[Finding]:
        if implements_transport(module):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                method = node.func.attr
                if method in _SEND_METHODS:
                    tag, present = _call_tag(node)
                    if not present:
                        continue  # not a simmpi send (pipes, sockets)
                    key = _tag_key(tag)
                    if key is None:
                        self._dynamic_send = True
                    else:
                        self._sends.setdefault(
                            key,
                            module.finding(
                                self.code,
                                node,
                                f"send tag {key[1]!r} has no matching "
                                "recv/probe anywhere in the scanned paths",
                            ),
                        )
                elif method in _RECV_METHODS:
                    tag, present = _call_tag(node)
                    if not present:
                        self._dynamic_recv = True  # ANY_TAG default
                        continue
                    key = _tag_key(tag)
                    if key is None:
                        self._dynamic_recv = True
                    else:
                        self._recvs.setdefault(
                            key,
                            module.finding(
                                self.code,
                                node,
                                f"recv/probe tag {key[1]!r} has no matching "
                                "send anywhere in the scanned paths",
                            ),
                        )
            if isinstance(node, ast.If) and _mentions_rank(node.test):
                yield from self._check_branch(module, node.body, node.orelse)
                yield from self._check_branch(module, node.orelse, node.body)

    def _check_branch(
        self, module: ModuleContext, branch: list[ast.stmt], other: list[ast.stmt]
    ) -> Iterable[Finding]:
        other_names = _collectives_in(other)
        for stmt in branch:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = _collective_name(node)
                    if name is not None and name not in other_names:
                        yield module.finding(
                            self.code,
                            node,
                            f"collective '{name}' under a rank-conditional "
                            "branch: ranks not taking this branch will "
                            "deadlock in the collective",
                        )

    def finalize(self) -> Iterable[Finding]:
        if not self._dynamic_recv:
            for key, finding in sorted(self._sends.items(), key=lambda kv: str(kv[0])):
                if key not in self._recvs:
                    yield finding
        if not self._dynamic_send:
            for key, finding in sorted(self._recvs.items(), key=lambda kv: str(kv[0])):
                if key not in self._sends:
                    yield finding
