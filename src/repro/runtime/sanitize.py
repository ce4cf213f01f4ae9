"""Runtime communication sanitizer: a ledger of the run's protocol.

This module catches protocol bugs *at runtime*.  With
``REPRO_SANITIZE=1`` (or ``World(sanitize=True)``, or ``--sanitize`` on
the CLI) every rank's communicator gets a :class:`SanitizeLayer` as the
outermost layer of its middleware chain
(:func:`repro.runtime.layers.compose`), which

* records every send per ``(dest, tag)`` with the first call site and
  every receive per ``(source, tag)``, so **unmatched sends** are
  reported at teardown with rank, tag and ``file:line``;
* records the per-rank **collective order** (barrier/allgather/
  allreduce/bcast/win_create/fence) and reports the first divergence
  between ranks — the halo-exchange/fence protocol of §2.2.1 requires
  all ranks to execute the same collective sequence.

No receive can race: :class:`~repro.runtime.simmpi.RankComm` takes only
addressed receives, and delivery is FIFO per ``(source, tag)``, so
which message a receive gets never depends on arrival order.  The layer
therefore leaves every payload as the communicator froze it.

At teardown every rank exchanges its ledger and all ranks compute the
same verdict; :class:`repro.runtime.simmpi.World.run` unwraps it,
publishes ``runtime.sanitize.*`` observe counters, and raises
:class:`SanitizerError` when violations exist.

Every user collective is one ``exchange`` primitive, so divergent
collective *kinds* still pair up and are reported instead of
deadlocking; the ledgers cross process boundaries as plain
tuples/dicts — it works identically on the thread, process, and
overdecomposed backends.
"""

from __future__ import annotations

import os
import sys
from typing import Callable

from repro import observe as obs
from repro.runtime.layers import Layer

#: Marker prefix for a wrapped per-rank (result, report) pair.
_RESULT = "__repro_sanitize_result__"

#: Rolling process-wide summary for CLI reporting (parent process only).
SUMMARY = {"worlds": 0}


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
    if v["kind"] == "unmatched_send":
        return (
            f"unmatched send: rank {v['source']} -> rank {v['dest']} "
            f"tag {v['tag']} x{v['count']} never received "
            f"(first send at {v['site']})"
        )
    return (
        f"collective order diverges at step {v['step']}: "
        + ", ".join(
            f"rank {r} did {e}" for r, e in sorted(v["events"].items())
        )
    )


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


def _marked(obj, marker: str) -> bool:
    """Whether ``obj`` is a ``(marker, x, y)`` triple.

    Checks the head's type first: a user result may itself be a 3-tuple
    starting with an array, which must not be compared against a string.
    """
    return (
        isinstance(obj, tuple)
        and len(obj) == 3
        and isinstance(obj[0], str)
        and obj[0] == marker
    )


class SanitizeLayer(Layer):
    """Outermost middleware layer: keeps this rank's protocol ledger.

    Counts sends and receives per channel and records the collective
    order; payloads pass through untouched, and ``probe``/``iprobe``/
    ``put`` are not intercepted.  ``endpoint`` is the innermost link of
    the chain, which :meth:`seal` exchanges the ledgers over.
    """

    name = "sanitize"

    def __init__(self, inner, endpoint) -> None:
        super().__init__(inner)
        self._endpoint = endpoint
        # This rank's ledger, exported as plain data by seal().
        self._sends: dict[tuple[int, int], list] = {}  # (dest, tag) -> [n, site]
        self._recvs: dict[tuple[int, int], int] = {}  # (source, tag) -> n
        self._events: list[tuple] = []

    def send(self, dest, tag, payload, nbytes):
        self.inner.send(dest, tag, payload, nbytes)
        slot = self._sends.get((dest, tag))
        if slot is None:
            slot = self._sends[(dest, tag)] = [0, _call_site()]
        slot[0] += 1

    def recv(self, source, tag):
        envelope = self.inner.recv(source, tag)
        self._recvs[(source, tag)] = self._recvs.get((source, tag), 0) + 1
        return envelope

    def exchange(self, kind, value, metered):
        self._events.append(kind)
        return self.inner.exchange(kind, value, metered)

    def fence(self, win_tag, counts):
        self._events.append(("fence",))
        return self.inner.fence(win_tag, counts)

    def seal(self, result) -> tuple:
        """Exchange the ledgers; return ``(marker, result, report)``.

        The exchange goes straight to the endpoint — unrecorded,
        unmetered — so it perturbs neither the collective order nor the
        traffic ledger.  It waits with no deadline: a rank still stuck
        in ``main`` trips its own watchdog, naming its wait, and that
        abort ends this wait; a deadline here would fire first and hide
        that rank's site behind this gather.
        """
        export = {
            "rank": self._endpoint.rank,
            "sends": [
                [dest, tag, count, site]
                for (dest, tag), (count, site) in sorted(self._sends.items())
            ],
            "recvs": [
                [source, tag, count]
                for (source, tag), count in sorted(self._recvs.items())
            ],
            "events": [list(e) for e in self._events],
        }
        self._endpoint.watchdog = None
        exports = self._endpoint.exchange(("sanitize",), export, False)
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
        raise SanitizerError(report)
    return unwrapped
