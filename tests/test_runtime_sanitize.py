"""Runtime communication sanitizer: detection and zero-overhead-when-off.

The fixture worlds are tiny hand-written SPMD mains.  The real
halo-exchange protocols run sanitized in the conformance matrix's
sanitize axis (``tests/test_runtime_conformance.py``), on every backend.
"""

import numpy as np
import pytest

from repro.runtime.sanitize import _RESULT, SanitizerError, _marked
from repro.runtime.simmpi import World, sanitize_enabled


class TestPrimitives:
    def test_array_headed_triples_are_not_mistaken_for_envelopes(self):
        # A rank result may itself be a 3-tuple starting with an array;
        # testing it for the sealed-result marker must not raise.
        from repro.runtime.stats import payload_nbytes

        result = (np.arange(4), 1, 2)
        assert not _marked(result, _RESULT)
        assert payload_nbytes(result) == 32 + 8 + 8
        world = World(1, sanitize=True, backend="thread")
        assert world.run(lambda comm: result)[0] is result

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

    def test_pinned_source_recv_is_not_a_race(self):
        def pinned(comm):
            if comm.rank in (1, 2):
                comm.send(0, 7, comm.rank)
            comm.barrier()
            if comm.rank == 0:
                comm.recv(source=1, tag=7)
                comm.recv(source=2, tag=7)

        World(3, sanitize=True).run(pinned)

    def test_collective_order_divergence_is_reported_not_deadlocked(self):
        def diverge(comm):
            if comm.rank == 0:
                comm.barrier()  # deliberate divergence under test
            else:
                comm.allgather(comm.rank)

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
