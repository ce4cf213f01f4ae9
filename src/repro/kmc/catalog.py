"""Incremental BKL event catalog: a sum tree over per-row total rates.

Rebuilding a flat ``(vacancy, target, rate)`` list — Python ``extend``
loops plus a full ``cumsum`` — on *every* event makes one hop cost
O(all vacancies); that rebuild survives only as the test oracle
(``tests/kmc_oracle.py``).  :class:`EventCatalog` is the classic BKL
data structure the large-scale KMC codes rely on instead: a binary sum
tree (a segment tree; the array layout is the same as a Fenwick tree's
implicit heap) keyed by site row, holding each row's total event rate
in a leaf and subtree sums in the internal nodes.  It supports

* O(log N) event sampling by exact prefix-sum descent,
* O(log N) rate updates when a row's events are set or cleared,
* an exact O(1) total-rate query (the root),

so one hop costs O(rows inside the influence radius), matching the
incremental-bookkeeping design of the companion hundred-billion-atom
cascade paper.

Two properties matter for reproducibility:

* **Set-leaf updates, not deltas.**  Every update rewrites the leaf and
  recomputes its ancestors as exact children sums, so the tree never
  accumulates floating-point drift: an incrementally maintained catalog
  is *bit-identical* to one rebuilt from scratch over the same rows.
* **Exact selection.**  Sampling descends the tree's own partial sums,
  so the selected row always brackets the target mass exactly; the
  ``searchsorted(cumsum, u*total)`` + clamp idiom it replaces could
  mis-select when ``u*total`` landed past the last partial sum (the
  pairwise ``sum`` and the sequential ``cumsum`` disagree in the last
  ulp).  If rounding pushes the target past the total, the catalog
  falls back to the rightmost row with positive rate — never a
  zero-rate row.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EventCatalog"]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0)

#: Bulk population threshold: above it, a vectorized full-tree rebuild
#: beats per-row update walks.  Both produce bit-identical trees (every
#: internal node is always the exact sum of its two children).
_BULK_THRESHOLD = 64


class EventCatalog:
    """Per-row event tables + sum tree over per-row total rates.

    Parameters
    ----------
    nrows:
        Number of addressable rows (sites of the local model).  Leaves
        are keyed by row index, so prefix order is ascending row order —
        the same order the flat-list drivers enumerated events in.
    """

    __slots__ = ("nrows", "size", "tree", "targets", "rates", "_cums", "n_active")

    def __init__(self, nrows: int) -> None:
        if nrows < 1:
            raise ValueError(f"nrows must be >= 1, got {nrows}")
        self.nrows = int(nrows)
        size = 1
        while size < self.nrows:
            size <<= 1
        self.size = size
        self.tree = np.zeros(2 * size)
        self.targets: list[np.ndarray | None] = [None] * self.nrows
        self.rates: list[np.ndarray | None] = [None] * self.nrows
        self._cums: list[np.ndarray | None] = [None] * self.nrows
        #: Number of rows currently holding an event table.
        self.n_active = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def total(self) -> float:
        """Exact total rate over all rows (the root of the sum tree)."""
        return float(self.tree[1])

    def row_events(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """(targets, rates) currently stored for ``row`` (empty if none)."""
        t = self.targets[row]
        if t is None:
            return _EMPTY_I, _EMPTY_F
        return t, self.rates[row]

    def row_rate(self, row: int) -> float:
        """Total rate stored at ``row`` (0 when the row is out of the catalog)."""
        return float(self.tree[self.size + row])

    def prefix(self, row: int) -> float:
        """Sum of leaf rates over rows ``[0, row)``.

        Accumulated top-down in the same association order
        :meth:`sample` subtracts partial sums, so
        ``prefix(r) <= u * total < prefix(r) + row_rate(r)`` holds for
        the sampled row ``r`` (up to the final-ulp clamp).
        """
        if not 0 <= row <= self.nrows:
            raise IndexError(f"row {row} out of range")
        tree = self.tree
        i = 1
        lo, hi = 0, self.size
        acc = 0.0
        while i < self.size:
            mid = (lo + hi) // 2
            if row < mid:
                i = 2 * i
                hi = mid
            else:
                acc += float(tree[2 * i])
                i = 2 * i + 1
                lo = mid
        return acc

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def _set_leaf(self, row: int, value: float) -> None:
        tree = self.tree
        i = self.size + row
        tree[i] = value
        i >>= 1
        while i:
            tree[i] = tree[2 * i] + tree[2 * i + 1]
            i >>= 1

    def _rebuild_tree(self) -> None:
        """Recompute every internal node from the leaves, vectorized."""
        tree = self.tree
        half = self.size
        while half > 1:
            child = tree[half : 2 * half]
            half >>= 1
            tree[half : 2 * half] = child[0::2] + child[1::2]

    def set_row(self, row: int, targets: np.ndarray, rates: np.ndarray) -> None:
        """Set the event table of ``row`` (replacing any previous one)."""
        if self.targets[row] is None:
            self.n_active += 1
        self.targets[row] = targets
        self.rates[row] = rates
        self._cums[row] = None
        self._set_leaf(row, float(np.sum(rates)) if len(rates) else 0.0)

    def clear_row(self, row: int) -> None:
        """Remove ``row`` from the catalog (no-op if absent)."""
        if self.targets[row] is None:
            return
        self.targets[row] = None
        self.rates[row] = None
        self._cums[row] = None
        self.n_active -= 1
        self._set_leaf(row, 0.0)

    def set_rows(
        self,
        rows: np.ndarray,
        counts: np.ndarray,
        targets_flat: np.ndarray,
        rates_flat: np.ndarray,
    ) -> None:
        """Bulk :meth:`set_row` from a batched rate-kernel result.

        ``counts[k]`` events of ``rows[k]`` sit consecutively in
        ``targets_flat`` / ``rates_flat``.  Large batches rebuild the
        whole tree vectorized; the result is bit-identical to per-row
        updates either way.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return
        splits = np.cumsum(counts)[:-1]
        per_t = np.split(np.asarray(targets_flat, dtype=np.int64), splits)
        per_r = np.split(np.asarray(rates_flat), splits)
        if len(rows) < _BULK_THRESHOLD:
            for row, t, r in zip(rows, per_t, per_r, strict=True):
                self.set_row(int(row), t, r)
            return
        leaves = np.fromiter(
            (float(np.sum(r)) if len(r) else 0.0 for r in per_r),
            dtype=float,
            count=len(rows),
        )
        for row, t, r in zip(rows, per_t, per_r, strict=True):
            row = int(row)
            if self.targets[row] is None:
                self.n_active += 1
            self.targets[row] = t
            self.rates[row] = r
            self._cums[row] = None
        self.tree[self.size + rows] = leaves
        self._rebuild_tree()

    def refresh(self, model, occ: np.ndarray, rows, vacancy_code: int = 0):
        """Re-derive the event tables of ``rows`` from current occupancy.

        Rows holding a vacancy re-enter the catalog with freshly
        evaluated rates (one ``model.vacancy_events_batch`` call); all
        other rows leave it.  This is the invalidation entry point:
        drivers pass exactly the rows inside the influence radius of an
        occupancy change.

        Returns ``(n_refreshed, n_cleared)``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            return 0, 0
        is_vac = occ[rows] == vacancy_code
        vac = rows[is_vac]
        cleared = 0
        for row in rows[~is_vac]:
            row = int(row)
            if self.targets[row] is not None:
                self.clear_row(row)
                cleared += 1
        if len(vac) == 0:
            return 0, cleared
        counts, targets_flat, rates_flat = model.vacancy_events_batch(vac, occ)
        self.set_rows(vac, counts, targets_flat, rates_flat)
        return len(vac), cleared

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, u: float) -> tuple[int, int]:
        """Select the event at cumulative mass ``u * total``.

        Returns ``(row, index)`` into :meth:`row_events`.  Requires a
        positive total.  Selection is exact against the tree's own
        partial sums; rounding at the far edge falls back to the
        rightmost positive-rate row instead of clamping blindly.
        """
        tree = self.tree
        total = float(tree[1])
        if not total > 0.0:
            raise ValueError("cannot sample from an empty catalog")
        target = u * total
        size = self.size
        i = 1
        while i < size:
            left = float(tree[2 * i])
            if target < left:
                i = 2 * i
            else:
                target -= left
                i = 2 * i + 1
        row = i - size
        if row >= self.nrows or not tree[size + row] > 0.0:
            # u*total landed at/past the total (last-ulp drift): take the
            # rightmost row holding rate mass.
            i = 1
            while i < size:
                i = 2 * i + 1 if tree[2 * i + 1] > 0.0 else 2 * i
            row = i - size
            target = float(tree[size + row])
        rates = self.rates[row]
        cums = self._cums[row]
        if cums is None:
            cums = self._cums[row] = np.cumsum(rates)
        idx = int(np.searchsorted(cums, target, side="right"))
        if idx >= len(rates):
            idx = len(rates) - 1
        while idx > 0 and not rates[idx] > 0.0:
            idx -= 1
        return row, idx

    def sample_event(self, u: float) -> tuple[int, int]:
        """Select an event and return it as ``(vacancy_row, target_row)``."""
        row, idx = self.sample(u)
        return row, int(self.targets[row][idx])
