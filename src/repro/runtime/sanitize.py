"""Runtime communication sanitizer: a vector-clock happens-before ledger.

This module catches protocol bugs *at runtime*, TSan-style.
With ``REPRO_SANITIZE=1`` (or ``World(sanitize=True)``, or ``--sanitize``
on the CLI) every rank's communicator gets a :class:`SanitizeLayer` as
the outermost layer of its middleware chain
(:func:`repro.runtime.layers.compose`), which

* stamps each point-to-point payload with the sender's vector clock and
  merges clocks on receive — the happens-before order of the run;
* flags **recv races**: a wildcard receive (``ANY_SOURCE``/``ANY_TAG``)
  that matched one message when a *concurrent* rival (neither send
  happens-before the other, and the rival's send not after the receive)
  could have matched instead — the delivered value depends on
  scheduling, which is exactly the nondeterminism the paper's
  bit-identity claims forbid.  Each wildcard match is recorded and
  every later delivery is tested against it, and what is still queued
  at teardown, so the verdict does not depend on arrival timing;
* records every send/recv per ``(source, dest, tag)`` with the first
  call site, so **unmatched sends** are reported at teardown with rank,
  tag and ``file:line``;
* records the per-rank **collective order** (barrier/allgather/
  allreduce/bcast/win_create/fence) and reports the first divergence
  between ranks — the halo-exchange/fence protocol of §2.2.1 requires
  all ranks to execute the same collective sequence.

At teardown every rank exchanges its ledger and all ranks compute the
same verdict; :class:`repro.runtime.simmpi.World.run` unwraps it,
publishes ``runtime.sanitize.*`` observe counters, and raises
:class:`SanitizerError` when violations exist.

The instrumentation rides *on top of* the normal stack: every user
collective is one ``exchange`` primitive, so it carries the clock as
part of its value and divergent collective *kinds* still pair up and are
reported instead of deadlocking; all state crosses process boundaries as
plain tuples/dicts — it works identically on the thread, process, and
overdecomposed backends.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Callable

from repro import observe as obs
from repro.runtime.layers import Layer
from repro.runtime.transport import ANY_SOURCE, ANY_TAG, Mailbox

#: Marker prefix of a clock-stamped payload envelope.
_ENVELOPE = "__repro_sanitize__"
#: Marker prefix for a wrapped per-rank (result, report) pair.
_RESULT = "__repro_sanitize_result__"

#: Rolling process-wide summary for CLI reporting (parent process only).
SUMMARY = {"worlds": 0, "violations": 0}


class SanitizerError(RuntimeError):
    """The sanitizer found protocol violations; ``report`` has details."""

    def __init__(self, report: dict) -> None:
        self.report = report
        lines = [
            f"communication sanitizer: {len(report['violations'])} "
            "violation(s)"
        ]
        lines += ["  - " + _violation_text(v) for v in report["violations"]]
        super().__init__("\n".join(lines))


def _violation_text(v: dict) -> str:
    kind = v.get("kind")
    if kind == "unmatched_send":
        return (
            f"unmatched send: rank {v['source']} -> rank {v['dest']} "
            f"tag {v['tag']} x{v['count']} never received "
            f"(first send at {v['site']})"
        )
    if kind == "recv_race":
        return (
            f"recv race on rank {v['rank']}: wildcard recv at {v['site']} "
            f"matched (source={v['matched_source']}, tag={v['matched_tag']}) "
            f"while a concurrent rival (source={v['rival_source']}, "
            f"tag={v['rival_tag']}) also matched — delivery order is "
            "schedule-dependent"
        )
    if kind == "collective_divergence":
        return (
            f"collective order diverges at step {v['step']}: "
            + ", ".join(
                f"rank {r} did {e}" for r, e in sorted(v["events"].items())
            )
        )
    return str(v)


_RUNTIME_DIR = os.path.dirname(__file__)


def _call_site() -> str:
    """``file:line`` of the first frame outside the runtime package."""
    frame = sys._getframe(1)
    while frame is not None and (
        os.path.dirname(frame.f_code.co_filename) == _RUNTIME_DIR
    ):
        frame = frame.f_back
    if frame is None:  # pragma: no cover - defensive
        return "<unknown>"
    return f"{os.path.basename(frame.f_code.co_filename)}:{frame.f_lineno}"


def _before(a: tuple, b: tuple) -> bool:
    """Clock ``a`` happens-before (or equals) clock ``b``."""
    return all(x <= y for x, y in zip(a, b))


def _concurrent(a: tuple, b: tuple) -> bool:
    """Neither clock happens-before the other."""
    return not _before(a, b) and not _before(b, a)


def _marked(obj, marker: str) -> bool:
    """Whether ``obj`` is a ``(marker, x, y)`` triple.

    Checks the head's type first: a user payload may itself be a 3-tuple
    starting with an array, which must not be compared against a string.
    """
    return (
        isinstance(obj, tuple)
        and len(obj) == 3
        and isinstance(obj[0], str)
        and obj[0] == marker
    )


def _unwrap(payload) -> tuple[tuple | None, Any]:
    """(sender clock, user payload) of a possibly-enveloped payload."""
    if _marked(payload, _ENVELOPE):
        return tuple(payload[1]), payload[2]
    return None, payload


class SanitizeLayer(Layer):
    """Outermost middleware layer: builds the happens-before ledger.

    Sends, puts and collective contributions leave stamped with this
    rank's vector clock; receives, fence drains and collective results
    are unstamped and their clocks merged.  ``probe``/``iprobe`` pass
    through untouched.
    """

    name = "sanitize"

    def __init__(self, inner, rank: int, size: int, mailbox: Mailbox) -> None:
        super().__init__(inner)
        self.rank = rank
        self._vc = [0] * size
        self._mailbox = mailbox
        # This rank's ledger, exported as plain data by seal().
        self._sends: dict[tuple[int, int], list] = {}  # (dest, tag) -> [n, site]
        self._recvs: dict[tuple[int, int], int] = {}  # (source, tag) -> n
        self._events: list[tuple] = []
        self._races: list[dict] = []
        # Wildcard matches so far: (source, tag) pattern, the matched
        # message's clock, this rank's clock after the receive, call
        # site, and the matched (source, tag).
        self._wildcards: list[tuple] = []

    def _tick_and_stamp(self, payload) -> tuple:
        self._vc[self.rank] += 1
        return (_ENVELOPE, tuple(self._vc), payload)

    def _merge(self, other: tuple) -> None:
        vc = self._vc
        for i, x in enumerate(other):
            if x > vc[i]:
                vc[i] = x

    def _absorb(self, payload):
        """User payload of a stamped one, its clock merged into ours."""
        other, user = _unwrap(payload)
        if other is not None:
            self._merge(other)
        return user

    # -- two-sided -----------------------------------------------------
    def send(self, dest, tag, payload, nbytes):
        self.inner.send(dest, tag, self._tick_and_stamp(payload), nbytes)
        slot = self._sends.get((dest, tag))
        if slot is None:
            slot = self._sends[(dest, tag)] = [0, _call_site()]
        slot[0] += 1

    def recv(self, source, tag):
        src, t, payload, nbytes = self.inner.recv(source, tag)
        vc, user = _unwrap(payload)
        if vc is not None:
            self._check_rivals(src, t, vc)
            self._merge(vc)
        self._vc[self.rank] += 1
        if vc is not None and (source == ANY_SOURCE or tag == ANY_TAG):
            self._wildcards.append(
                (source, tag, vc, tuple(self._vc), _call_site(), src, t)
            )
        self._recvs[(src, t)] = self._recvs.get((src, t), 0) + 1
        return src, t, user, nbytes

    def _check_rivals(self, src: int, t: int, vc: tuple) -> None:
        """Test a delivery against every earlier wildcard match it fits.

        It is a rival when its send is concurrent with the matched
        message's and did not happen after the receive: the runtime
        could have handed either message to that recv — a
        schedule-dependent result, whenever the rival arrives.  FIFO
        per (source, tag) means same-channel messages are never
        concurrent, so pinned-source schemes stay clean by construction.
        """
        for source, tag, matched_vc, recv_vc, site, m_src, m_tag in self._wildcards:
            if source not in (ANY_SOURCE, src) or tag not in (ANY_TAG, t):
                continue
            if not _concurrent(matched_vc, vc) or _before(recv_vc, vc):
                continue
            self._races.append(
                {
                    "kind": "recv_race",
                    "rank": self.rank,
                    "site": site,
                    "matched_source": m_src,
                    "matched_tag": m_tag,
                    "rival_source": src,
                    "rival_tag": t,
                }
            )

    # -- collectives ---------------------------------------------------
    def exchange(self, kind, value, metered):
        self._events.append(kind)
        outs = self.inner.exchange(
            kind, (_ENVELOPE, tuple(self._vc), value), metered
        )
        users = [self._absorb(item) for item in outs]
        self._vc[self.rank] += 1
        return users

    # -- one-sided -----------------------------------------------------
    def put(self, win_tag, target, payload, nbytes):
        self.inner.put(win_tag, target, self._tick_and_stamp(payload), nbytes)

    def fence(self, win_tag, counts):
        self._events.append(("fence",))
        drained = [
            (origin, self._absorb(payload), nbytes)
            for origin, payload, nbytes in self.inner.fence(win_tag, counts)
        ]
        self._vc[self.rank] += 1
        return drained

    # -- teardown ------------------------------------------------------
    def seal(self, result) -> tuple:
        """Exchange the ledgers; return ``(marker, result, report)``.

        Messages still queued are settled against the wildcard matches
        first.  The exchange goes inward from here — unstamped,
        unmetered — so it perturbs neither the clocks nor the traffic
        ledger.
        """
        for src, t, payload, _nbytes in self._mailbox.queued():
            vc, _user = _unwrap(payload)
            if vc is not None:
                self._check_rivals(src, t, vc)
        export = {
            "rank": self.rank,
            "sends": [
                [dest, tag, count, site]
                for (dest, tag), (count, site) in sorted(self._sends.items())
            ],
            "recvs": [
                [source, tag, count]
                for (source, tag), count in sorted(self._recvs.items())
            ],
            "events": [list(e) for e in self._events],
            "races": self._races,
        }
        exports = self.inner.exchange(("sanitize",), export, False)
        return (_RESULT, result, _validate(exports))


def _validate(exports: list[dict]) -> dict:
    """Deterministic verdict over all ranks' ledgers.

    Every rank runs this on the same allgathered data, so every rank
    (and the parent, after unwrapping) sees the identical report.
    """
    violations: list[dict] = []

    sent: dict[tuple[int, int, int], list] = {}
    received: dict[tuple[int, int, int], int] = {}
    for export in exports:
        rank = export["rank"]
        for dest, tag, count, site in export["sends"]:
            slot = sent.setdefault((rank, dest, tag), [0, site])
            slot[0] += count
        for source, tag, count in export["recvs"]:
            key = (source, rank, tag)
            received[key] = received.get(key, 0) + count
    for (source, dest, tag), (count, site) in sorted(sent.items()):
        missing = count - received.get((source, dest, tag), 0)
        if missing > 0:
            violations.append(
                {
                    "kind": "unmatched_send",
                    "source": source,
                    "dest": dest,
                    "tag": tag,
                    "count": missing,
                    "site": site,
                }
            )

    for export in exports:
        violations.extend(export["races"])

    sequences = {e["rank"]: e["events"] for e in exports}
    longest = max((len(s) for s in sequences.values()), default=0)
    for step in range(longest):
        step_events = {
            rank: (seq[step] if step < len(seq) else ["<missing>"])
            for rank, seq in sorted(sequences.items())
        }
        distinct = {tuple(e) for e in step_events.values()}
        if len(distinct) > 1:
            violations.append(
                {
                    "kind": "collective_divergence",
                    "step": step,
                    "events": {
                        rank: tuple(e) for rank, e in step_events.items()
                    },
                }
            )
            break  # later steps are garbage once the order diverged

    return {
        "ranks": len(exports),
        "sends": sum(c for c, _ in sent.values()),
        "collectives": sum(len(s) for s in sequences.values()),
        "violations": violations,
    }


def wrap_main(main: Callable) -> Callable:
    """The sanitized SPMD entry point :class:`World.run` dispatches.

    Runs the user's ``main`` — whose communicator carries the sanitizer
    layer — then seals the rank's result with the world-wide verdict;
    :func:`finish_world` unwraps it.  Works on every backend.
    """

    def sanitized_main(comm):
        return comm.sanitizer.seal(main(comm))

    return sanitized_main


def finish_world(results: list) -> list:
    """Unwrap sanitized results, publish counters, fail on violations."""
    unwrapped: list = []
    report: dict | None = None
    for item in results:
        if _marked(item, _RESULT):
            unwrapped.append(item[1])
            report = item[2]
        else:  # pragma: no cover - defensive (rank skipped teardown)
            unwrapped.append(item)
    if report is None:  # pragma: no cover - defensive
        return unwrapped

    obs.add("runtime.sanitize.worlds")
    obs.add("runtime.sanitize.sends", report["sends"])
    obs.add("runtime.sanitize.collectives", report["collectives"])
    SUMMARY["worlds"] += 1
    if report["violations"]:
        kinds: dict[str, int] = {}
        for v in report["violations"]:
            kinds[v["kind"]] = kinds.get(v["kind"], 0) + 1
        for kind, count in sorted(kinds.items()):
            obs.add(f"runtime.sanitize.violation.{kind}", count)
        obs.add("runtime.sanitize.violations", len(report["violations"]))
        SUMMARY["violations"] += len(report["violations"])
        raise SanitizerError(report)
    return unwrapped
