"""The campaign plan: what runs, and where each returned row is filed.

:func:`plan_campaign` expands a spec's grid (or an adjusted cell list, whose
indices must stay ``0..len-1``) and, given a cache directory, replays every
cell whose content hash is already on disk.  The cells left over are grouped
by payload hash into :class:`WorkUnit` s in grid order, so two cells with
identical payloads cost one execution.

The plan is the one place that decides this, for every way a campaign runs.
Its transports only move payloads and rows:

* the serial loop and the process pool of
  :func:`~repro.campaign.execute.run_campaign`;
* the TCP fleet of :class:`~repro.fleet.controller.CampaignController`.

Each hands every computed row back to :meth:`CampaignPlan.record`, which
files it under every cell index of its unit and writes it to the cache
(error rows are never cached); :meth:`CampaignPlan.result` then assembles
the :class:`~repro.campaign.result.CampaignResult` by cell index.  So cache
replay and payload dedup apply to serial, pool and fleet runs alike.

``python -m repro.campaign --dry-run`` prints :meth:`CampaignPlan.describe`,
so a grid can be sanity-checked — axis values, cell count, how much a resumed
run will actually recompute — before committing CPU-days to it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .. import telemetry
from ..exceptions import ParameterError
from .cache import ResultCache, payload_hash
from .result import CampaignResult
from .spec import AXIS_NAMES, CampaignCell, CampaignSpec

__all__ = ["CampaignPlan", "WorkUnit", "plan_campaign"]

logger = logging.getLogger(__name__)


@dataclass
class WorkUnit:
    """One dispatchable unit: a payload plus every cell index it serves."""

    key: str  # payload content hash
    payload: Dict[str, object]
    indices: List[int]  # cell indices sharing this payload (usually one)
    attempts: int = 0  # fleet dispatches so far (first dispatch makes it 1)


@dataclass
class CampaignPlan:
    """The expanded grid of one spec, its cache state and its row table."""

    spec: CampaignSpec
    #: every cell, in grid order
    cells: List[CampaignCell]
    #: axis name -> ordered distinct values across the grid
    axes: Mapping[str, Tuple[object, ...]]
    #: cell index -> cached row (only populated when a cache dir was given)
    cached_rows: Dict[int, Dict[str, object]]
    #: cells not served by the cache, in grid order
    pending: List[CampaignCell]
    #: the pending cells deduplicated by payload, in order of first appearance
    units: List[WorkUnit]
    cache: Optional[ResultCache]
    #: one slot per cell, filled by the cache replay and by :meth:`record`
    rows: List[Optional[Dict[str, object]]]
    #: cells that have a row
    done: int

    @property
    def total(self) -> int:
        return len(self.cells)

    @property
    def complete(self) -> bool:
        return self.done >= self.total

    def record(self, unit: WorkUnit, row: Dict[str, object]) -> None:
        """File one computed row under every cell index ``unit`` serves."""
        row = dict(row)
        row.setdefault("cached", False)
        if self.cache is not None and not row.get("error"):
            self.cache.put(unit.payload, row)
        for index in unit.indices:
            if self.rows[index] is None:
                self.done += 1
            self.rows[index] = dict(row)

    def result(self, *, workers: int, wall_seconds: float) -> CampaignResult:
        """The assembled result, rows in cell order (every cell must be done)."""
        assert self.complete and all(row is not None for row in self.rows)
        if self.cache is not None:
            telemetry.count("cache.cells_replayed", self.cache.hits)
            logger.info("%s", self.cache.summary_line())
        return CampaignResult(
            name=self.spec.name,
            spec=self.spec.to_dict(),
            rows=[row for row in self.rows if row is not None],
            workers=workers,
            wall_seconds=wall_seconds,
            cache_hits=self.cache.hits if self.cache is not None else 0,
            cache_misses=self.cache.misses if self.cache is not None else 0,
        )

    def describe(self) -> str:
        """The plan as human-readable text (what ``--dry-run`` prints)."""
        lines = [f"campaign : {self.spec.name} — {self.total} cells"]
        for axis in AXIS_NAMES:
            values = self.axes.get(axis, ())
            if axis == "rep":
                rendered = str(len(values))
            else:
                rendered = ", ".join(str(v) for v in values)
            lines.append(f"  {axis:<10} ({len(values)}): {rendered}")
        if self.cache is not None:
            lines.append(
                f"cache    : {len(self.cached_rows)} cached, "
                f"{len(self.pending)} pending ({self.cache.directory})"
            )
        else:
            lines.append(f"pending  : {len(self.pending)} (no cache dir)")
        return "\n".join(lines)


def plan_campaign(
    spec: CampaignSpec,
    *,
    cache_dir: Optional[str] = None,
    cells: Optional[List[CampaignCell]] = None,
) -> CampaignPlan:
    """Expand ``spec``, replay the cache and queue the rest, running nothing.

    ``cells`` is a pre-expanded (possibly adjusted) cell list to plan instead
    of ``spec.cells()`` — how the attack matrix pins every cell to its
    scenario's verbatim seed.  Its indices must be ``0..len-1``.
    """
    if cells is None:
        cells = spec.cells()
    elif [cell.index for cell in cells] != list(range(len(cells))):
        raise ParameterError("adjusted cell lists must keep contiguous indices")
    axes: Dict[str, List[object]] = {name: [] for name in AXIS_NAMES}
    for cell in cells:
        for name in AXIS_NAMES:
            value = cell.axes.get(name)
            if value not in axes[name]:
                axes[name].append(value)
    cache = ResultCache(cache_dir) if cache_dir is not None else None
    rows: List[Optional[Dict[str, object]]] = [None] * len(cells)
    cached_rows: Dict[int, Dict[str, object]] = {}
    pending: List[CampaignCell] = []
    for cell in cells:
        row = cache.get(cell.payload) if cache is not None else None
        if row is not None:
            cached_rows[cell.index] = rows[cell.index] = row
        else:
            pending.append(cell)
    # Identical payloads give bit-identical rows: one unit serves them all.
    units: Dict[str, WorkUnit] = {}
    for cell in pending:
        key = payload_hash(cell.payload)
        unit = units.get(key)
        if unit is None:
            unit = units[key] = WorkUnit(key=key, payload=dict(cell.payload), indices=[])
        unit.indices.append(cell.index)
    return CampaignPlan(
        spec=spec,
        cells=cells,
        axes={name: tuple(values) for name, values in axes.items()},
        cached_rows=cached_rows,
        pending=pending,
        units=list(units.values()),
        cache=cache,
        rows=rows,
        done=len(cached_rows),
    )
