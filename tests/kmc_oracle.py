"""Reference BKL selection: the flat per-event rebuild, cache-free.

The engines select events through the incremental
:class:`~repro.kmc.catalog.EventCatalog` only.  This module keeps the
algorithm the catalog replaced — enumerate every event of every vacancy
into one flat list, ``cumsum`` it, pick by ``searchsorted`` — as the
oracle the equivalence tests compare against.  It caches nothing: every
step re-derives every rate from the model, so it shares no invalidation
logic with the code under test.  The rates come from
:func:`vacancy_events`, one vacancy at a time: the scalar form of
Equation (4) that ``KMCModel.vacancy_events_batch`` must reproduce bit
for bit.

The catalog and the flat list sum the same rates in different orders
(tree vs pairwise), so time increments agree to rounding (``rel=1e-12``)
while the event sequence — the occupancy after every step — agrees
exactly.
"""

from __future__ import annotations

import math

import numpy as np

from repro.kmc.events import ATOM, VACANCY


def select_event(rates: np.ndarray, u: float) -> int:
    """Index of the event at cumulative rate mass ``u * sum(rates)``.

    Selection follows the BKL residence-time rule: event ``i`` owns the
    half-open interval ``[cum[i-1], cum[i])`` of the cumulative rate
    line, and ``u`` (uniform in ``[0, 1)``) picks the interval containing
    ``u * total``.  Two guarantees the naive ``searchsorted`` + clamp
    lacks:

    * a zero-rate event is **never** selected — if floating-point
      round-off pushes the target past the last positive cumulative
      value (pairwise ``sum`` vs sequential ``cumsum`` disagreeing in
      the last ulp), the rightmost event with positive rate is taken,
      matching :meth:`repro.kmc.catalog.EventCatalog.sample`;
    * ``u == 0.0`` with leading zero-rate events selects the first
      positive-rate event, not index 0.

    Raises ``ValueError`` when the vector is empty or carries no
    positive rate (callers check the total before drawing ``u``).
    """
    rates = np.asarray(rates, dtype=float)
    n = len(rates)
    if n == 0:
        raise ValueError("cannot select from an empty rate vector")
    total = float(np.sum(rates))
    if not total > 0.0:
        raise ValueError("cannot select an event from a zero total rate")
    cum = np.cumsum(rates)
    idx = int(np.searchsorted(cum, u * total, side="right"))
    if idx >= n:
        idx = n - 1
    # Only the round-off overshoot lands on a zero-rate entry (inside the
    # range, searchsorted's first-strictly-greater index always has
    # positive rate); fall back to the rightmost positive-rate event.
    while idx > 0 and not rates[idx] > 0.0:
        idx -= 1
    return idx


def vacancy_events(model, vrow: int, occ) -> tuple[np.ndarray, np.ndarray]:
    """(target rows, rates) of all possible hops of the vacancy at ``vrow``.

    Requires ``occ[vrow] == VACANCY``.  Targets are the occupied
    first-shell neighbors; rates follow Equation (4), clamped by the
    model's ``rate_cap`` like the batch path's.
    """
    if occ[vrow] != VACANCY:
        raise ValueError(f"row {vrow} does not hold a vacancy")
    cand = model.first_matrix[vrow][model.first_valid[vrow]]
    targets = cand[occ[cand] == ATOM]
    if len(targets) == 0:
        return targets, np.empty(0)
    e_before = model.site_energy(targets, occ)
    # E_after: the atom sits at vrow with its origin t vacated.  Start
    # from the sums at vrow under current occupancy and subtract each
    # target's own contribution (vectorized over the targets).
    occ_n = occ[model.e_matrix[vrow]] * model.e_valid[vrow]
    s_phi = float(np.sum(occ_n * model.phi_slots[vrow]))
    s_f = float(np.sum(occ_n * model.f_slots[vrow]))
    slots = model.e_matrix[vrow]
    vvalid = model.e_valid[vrow]
    match = vvalid[None, :] & (slots[None, :] == targets[:, None])
    dphi = np.sum(model.phi_slots[vrow][None, :] * match, axis=1)
    df = np.sum(model.f_slots[vrow][None, :] * match, axis=1)
    e_after = 0.5 * (s_phi - dphi) + model.potential.embed(s_f - df)
    de = np.maximum(
        model.params.e_m0 + 0.5 * (e_after - e_before), model.params.de_min
    )
    rates = model.params.nu * np.exp(-de / model.params.kt)
    return targets, model._apply_rate_cap(rates)


def flat_events(model, occ, vrows) -> tuple[list[int], list[int], np.ndarray]:
    """Every event of the vacancies at ``vrows``: (vacancies, targets, rates),
    in ascending row order — the order the catalog's leaves are keyed in."""
    ev_v: list[int] = []
    ev_t: list[int] = []
    ev_r: list[float] = []
    for v in vrows:
        targets, rates = vacancy_events(model, int(v), occ)
        ev_v.extend([int(v)] * len(targets))
        ev_t.extend(int(t) for t in targets)
        ev_r.extend(float(r) for r in rates)
    return ev_v, ev_t, np.asarray(ev_r)


def oracle_step(engine) -> float | None:
    """One BKL event on a ``SerialAKMC``'s state by the flat rebuild.

    Draws from ``engine.rng`` in the engine's own order (dt first, then
    the pick) and advances its occupancy, clock and event counter;
    returns the time increment, ``None`` when no event is possible.
    """
    ev_v, ev_t, rates = flat_events(
        engine.model, engine.occ, np.flatnonzero(engine.occ == VACANCY)
    )
    if len(rates) == 0:
        return None
    dt = -math.log(engine.rng.random()) / float(rates.sum())
    pick = select_event(rates, engine.rng.random())
    engine.model.execute_swap(engine.occ, ev_v[pick], ev_t[pick])
    engine.time += dt
    engine.events += 1
    return dt


def oracle_sector_events(
    model, occ, rows_s, member, catalog, snapshot, rng, dt
) -> tuple[list[int], int, np.ndarray | None]:
    """Drop-in for ``repro.kmc.akmc._sector_events`` by the flat rebuild.

    Same signature and return shape; the catalog, membership mask and
    snapshot are ignored (and the snapshot handed back untouched).
    """
    dirty: list[int] = []
    events = 0
    t_sector = 0.0
    while True:
        ev_v, ev_t, rates = flat_events(
            model, occ, rows_s[occ[rows_s] == VACANCY]
        )
        if len(rates) == 0:
            break
        t_sector += -math.log(rng.random()) / float(rates.sum())
        if t_sector > dt:
            break
        pick = select_event(rates, rng.random())
        model.execute_swap(occ, ev_v[pick], ev_t[pick])
        dirty.extend((ev_v[pick], ev_t[pick]))
        events += 1
    return dirty, events, snapshot
