"""``repro.fleet`` — distributed campaign orchestration over TCP.

:mod:`repro.campaign` plans a parameter grid once
(:func:`~repro.campaign.plan.plan_campaign`: cache replay, payload dedup
into work units, row filing and result assembly) and runs it over one of
three transports: the serial loop, the process pool, or this subsystem's
*fleet*.  A :class:`CampaignController` takes the plan's work units and
listens on a TCP socket (stdlib ``socket``/``selectors``, length-prefixed
JSON frames — no dependencies); :class:`FleetWorker` processes register,
receive units one at a time, and stream result rows back incrementally:

* :mod:`repro.fleet.wire` — the framing layer (4-byte length prefix +
  canonical JSON message);
* :mod:`repro.fleet.controller` — the network side only: sockets,
  heartbeat-based worker-loss detection with bounded requeues (then error
  rows — never a dead sweep) and progress snapshots; cache hits and
  duplicate payloads never leave the controller because the plan has
  already settled them;
* :mod:`repro.fleet.worker` — the client loop around the campaign layer's
  existing pure worker function
  (:func:`~repro.campaign.execute.execute_cell`), with a heartbeat thread;
* :mod:`repro.fleet.progress` — the live progress/ETA view
  (:class:`FleetProgress`: cells done/in-flight/cached, rows per second,
  per-worker health) that replaces wait-for-everything assembly;
* :mod:`repro.fleet.local` — :func:`run_fleet_campaign`, which forks local
  workers at an ephemeral loopback port so existing callers and tests need
  no real network.

**The correctness oracle** is the campaign determinism pin extended across
the network boundary: a fleet run — any worker count, workers joining late
or dying mid-cell — assembles a
:class:`~repro.campaign.result.CampaignResult` bit-identical to
``run_campaign(spec, workers=1)`` (key fingerprints, energy ledgers,
sim latency, security verdicts; ``tests/test_fleet.py`` pins this, SIGKILL
included).

The module is runnable::

    python -m repro.fleet controller --spec campaign.json --port 7777
    python -m repro.fleet worker --connect controller-host:7777

Quickstart (in-process fleet)::

    from repro.campaign import CampaignSpec
    from repro.fleet import run_fleet_campaign

    spec = CampaignSpec(
        name="loss-sweep",
        protocols=("proposed-gka", "bd-unauthenticated", "ssn"),
        group_sizes=(8, 12),
        losses=(0.0, 0.1, 0.2),
        schedule={"kind": "poisson", "length": 8},
        seed=7,
    )
    result = run_fleet_campaign(spec, workers=4, cache_dir=".campaign-cache",
                                on_progress=lambda p: print(p.render()))
    print(result.pivot_table("protocol", "loss", "energy_j"))
"""

from ..campaign.plan import WorkUnit
from .controller import CampaignController
from .local import run_fleet_campaign
from .progress import FleetProgress, WorkerView
from .wire import MESSAGE_TYPES, PROTOCOL_VERSION, FrameDecoder, encode_frame
from .worker import FleetWorker

__all__ = [
    "CampaignController",
    "FleetProgress",
    "FleetWorker",
    "FrameDecoder",
    "MESSAGE_TYPES",
    "PROTOCOL_VERSION",
    "WorkUnit",
    "WorkerView",
    "encode_frame",
    "run_fleet_campaign",
]
