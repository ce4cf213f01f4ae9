"""Runtime communication sanitizer: detection and zero-overhead-when-off.

The fixture worlds are tiny hand-written SPMD mains.  The real
halo-exchange protocols run sanitized in the conformance matrix's
sanitize axis (``tests/test_runtime_conformance.py``), on every backend.
"""

import threading

import numpy as np
import pytest

from repro.runtime.sanitize import (
    SanitizerError,
    _concurrent,
    _unwrap,
)
from repro.runtime.simmpi import ANY_SOURCE, World, sanitize_enabled


class TestPrimitives:
    def test_concurrent_clocks(self):
        assert _concurrent((1, 0), (0, 1))
        assert not _concurrent((1, 0), (2, 0))  # ordered
        assert not _concurrent((1, 1), (1, 1))  # equal

    def test_unwrap_passthrough_for_plain_payloads(self):
        assert _unwrap(("a", "b")) == (None, ("a", "b"))
        assert _unwrap(42) == (None, 42)
        vc, user = _unwrap(("__repro_sanitize__", (1, 2), "x"))
        assert vc == (1, 2) and user == "x"

    def test_array_headed_triples_are_not_mistaken_for_envelopes(self):
        # A user payload may itself be a 3-tuple starting with an array;
        # comparing that element against the marker must not raise.
        from repro.runtime.stats import payload_nbytes

        payload = (np.arange(4), 1, 2)
        assert _unwrap(payload) == (None, payload)
        assert payload_nbytes(payload) == 32 + 8 + 8

    def test_enabled_kwarg_beats_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not sanitize_enabled()
        assert sanitize_enabled(True)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled()
        assert not sanitize_enabled(False)


def ring_main(comm):
    right = (comm.rank + 1) % comm.size
    left = (comm.rank - 1) % comm.size
    comm.send(right, 100, comm.rank)
    _src, _tag, payload = comm.recv(source=left, tag=100)
    total = comm.allreduce(payload)
    assert comm.bcast(total if comm.rank == 0 else None, root=0) == total
    comm.barrier()
    return total


class TestThreadBackend:
    def test_clean_world_passes_and_results_unwrap(self):
        world = World(4, sanitize=True)
        assert world.run(ring_main) == [6, 6, 6, 6]

    def test_results_match_unsanitized_run(self):
        plain = World(4).run(ring_main)
        sanitized = World(4, sanitize=True).run(ring_main)
        assert plain == sanitized

    def test_unmatched_send_reports_rank_tag_and_call_site(self):
        def bad(comm):
            if comm.rank == 0:
                comm.send(1, 42, "orphan")
            comm.barrier()

        with pytest.raises(SanitizerError) as err:
            World(4, sanitize=True).run(bad)
        (violation,) = err.value.report["violations"]
        assert violation["kind"] == "unmatched_send"
        assert violation["source"] == 0
        assert violation["dest"] == 1
        assert violation["tag"] == 42
        assert "test_runtime_sanitize.py" in violation["site"]
        assert "tag 42" in str(err.value)

    def test_wildcard_recv_race_between_concurrent_senders(self):
        def race(comm):
            if comm.rank in (1, 2):
                comm.send(0, 7, comm.rank)
            comm.barrier()  # both rivals queued before the recv
            if comm.rank == 0:
                comm.recv(source=ANY_SOURCE, tag=7)
                comm.recv(source=ANY_SOURCE, tag=7)

        with pytest.raises(SanitizerError) as err:
            World(3, sanitize=True).run(race)
        kinds = {v["kind"] for v in err.value.report["violations"]}
        assert kinds == {"recv_race"}

    def test_wildcard_race_with_a_rival_sent_after_the_match(self):
        # The verdict must not depend on arrival timing.  Rank 2 sends
        # only after rank 0's first wildcard match, gated by an event the
        # vector clocks cannot see: the rival is never queued beside the
        # matched message, yet the runtime could have delivered it first.
        matched = threading.Event()

        def late_rival(comm):
            if comm.rank == 0:
                comm.recv(source=ANY_SOURCE, tag=7)
                matched.set()
                comm.recv(source=ANY_SOURCE, tag=7)
            elif comm.rank == 1:
                comm.send(0, 7, "early")
            else:
                assert matched.wait(timeout=30)
                comm.send(0, 7, "late")

        with pytest.raises(SanitizerError, match="recv race") as err:
            World(3, sanitize=True, backend="thread").run(late_rival, timeout=60)
        (violation,) = err.value.report["violations"]
        assert (violation["matched_source"], violation["rival_source"]) == (1, 2)
        assert "test_runtime_sanitize.py" in violation["site"]

    def test_rival_sent_after_the_receive_is_not_a_race(self):
        # A barrier after the first match orders it before the second
        # send: the later message could never have been delivered first.
        def ordered(comm):
            if comm.rank == 1:
                comm.send(0, 7, "first")
            if comm.rank == 0:
                comm.recv(source=ANY_SOURCE, tag=7)
            comm.barrier()
            if comm.rank == 2:
                comm.send(0, 7, "second")
            if comm.rank == 0:
                comm.recv(source=ANY_SOURCE, tag=7)

        World(3, sanitize=True, backend="thread").run(ordered, timeout=60)

    def test_pinned_source_recv_is_not_a_race(self):
        def pinned(comm):
            if comm.rank in (1, 2):
                comm.send(0, 7, comm.rank)
            comm.barrier()
            if comm.rank == 0:
                comm.recv(source=1, tag=7)
                comm.recv(source=2, tag=7)

        World(3, sanitize=True).run(pinned)

    def test_ordered_same_channel_messages_are_not_a_race(self):
        # FIFO per (source, tag): two sends from one rank are causally
        # ordered, so a wildcard recv over them is deterministic.
        def ordered(comm):
            if comm.rank == 1:
                comm.send(0, 7, "first")
                comm.send(0, 7, "second")
            comm.barrier()
            if comm.rank == 0:
                assert comm.recv(source=ANY_SOURCE, tag=7)[2] == "first"
                assert comm.recv(source=ANY_SOURCE, tag=7)[2] == "second"

        World(2, sanitize=True).run(ordered)

    def test_collective_order_divergence_is_reported_not_deadlocked(self):
        def diverge(comm):
            if comm.rank == 0:
                comm.barrier()  # repro: noqa(REP002) deliberate divergence under test
            else:
                comm.allgather(comm.rank)  # repro: noqa(REP002) deliberate divergence under test

        with pytest.raises(SanitizerError) as err:
            World(3, sanitize=True).run(diverge)
        (violation,) = err.value.report["violations"]
        assert violation["kind"] == "collective_divergence"
        assert violation["step"] == 0
        assert violation["events"][0] == ("barrier",)
        assert violation["events"][1] == ("allgather",)

    def test_one_sided_put_fence_is_clean_and_unwrapped(self):
        def onesided(comm):
            win = comm.win_create()
            win.put((comm.rank + 1) % comm.size, comm.rank * 10)
            drained = win.fence()
            assert drained == [((comm.rank - 1) % comm.size,
                                ((comm.rank - 1) % comm.size) * 10)]
            return len(drained)

        assert World(3, sanitize=True).run(onesided) == [1, 1, 1]

    def test_env_knob_enables_wrapping(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")

        def main(comm):
            assert "sanitize" in comm.layers
            return comm.rank

        assert World(2).run(main) == [0, 1]

    def test_off_by_default_no_wrapping(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)

        def main(comm):
            assert "sanitize" not in comm.layers
            return comm.rank

        assert World(2).run(main) == [0, 1]


class TestOtherBackends:
    def test_process_backend_clean_world(self):
        assert World(4, sanitize=True, backend="process").run(ring_main) == [
            6, 6, 6, 6,
        ]

    def test_process_backend_detects_unmatched_send(self):
        def bad(comm):
            if comm.rank == 1:
                comm.send(0, 55, b"orphan")
            comm.barrier()

        with pytest.raises(SanitizerError) as err:
            World(2, sanitize=True, backend="process").run(bad)
        (violation,) = err.value.report["violations"]
        assert violation["kind"] == "unmatched_send"
        assert (violation["source"], violation["dest"], violation["tag"]) == (
            1, 0, 55,
        )

    def test_overdecomposed_backend_clean_world(self):
        world = World(4, sanitize=True, backend="overdecomposed", workers=2)
        assert world.run(ring_main) == [6, 6, 6, 6]
