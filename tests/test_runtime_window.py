"""One-sided window tests (put + fence epochs)."""

import numpy as np
import pytest

from repro.runtime.simmpi import World


class TestWindow:
    def test_put_delivered_after_fence(self, world_backend):
        def main(comm):
            win = comm.win_create()
            right = (comm.rank + 1) % comm.size
            win.put(right, np.array([comm.rank]))
            got = win.fence()
            assert len(got) == 1
            origin, payload = got[0]
            assert origin == (comm.rank - 1) % comm.size
            return int(payload[0])

        assert World(4, **world_backend).run(main) == [3, 0, 1, 2]

    def test_no_put_means_empty_fence(self, world_backend):
        def main(comm):
            win = comm.win_create()
            return win.fence()

        assert World(3, **world_backend).run(main) == [[]] * 3

    def test_multiple_epochs_isolated(self, world_backend):
        def main(comm):
            win = comm.win_create()
            other = 1 - comm.rank
            win.put(other, "epoch1")
            first = win.fence()
            # Nothing new: second epoch must be empty.
            second = win.fence()
            return (len(first), len(second))

        assert World(2, **world_backend).run(main) == [(1, 0)] * 2

    def test_multiple_puts_same_target(self, world_backend):
        def main(comm):
            win = comm.win_create()
            if comm.rank != 0:
                win.put(0, comm.rank)
                win.put(0, comm.rank * 100)
            return win.fence()

        # Origin-rank order, FIFO per origin.
        assert World(3, **world_backend).run(main)[0] == [
            (1, 1), (1, 100), (2, 2), (2, 200),
        ]

    def test_put_target_validation(self, world_backend):
        def main(comm):
            win = comm.win_create()
            with pytest.raises(ValueError, match="target"):
                win.put(5, None)
            win.fence()

        World(2, **world_backend).run(main)

    def test_put_payload_copied(self, world_backend):
        def main(comm):
            win = comm.win_create()
            buf = np.zeros(3)
            win.put(1 - comm.rank, buf)
            buf[:] = 99.0
            got = win.fence()
            return float(got[0][1][0])

        assert World(2, **world_backend).run(main) == [0.0, 0.0]

    def test_traffic_recorded(self, world_backend):
        def main(comm):
            win = comm.win_create()
            win.put(1 - comm.rank, np.zeros(10))
            win.fence()

        w = World(2, **world_backend)
        w.run(main)
        assert w.stats.total_sent_bytes == 2 * 80
