"""Execution-path workloads for the path-golden suite.

``equivalence_workloads.py`` pins the nine flat protocols in *instant* mode
only.  The workloads here pin the other execution paths the engine and the
media offer, one scenario each:

* ``radio-lossy-bd``: BD on a lossy single-hop medium in latency mode (radio
  transceiver bitrate, single-attempt sends, timeout retransmission waves,
  channel serialisation);
* ``mobility-multihop``: a 50-node random-waypoint field over a
  :class:`~repro.mobility.relay.MultiHopMedium` (relay floods, per-receiver
  hop counts and distances, emergent partition/merge churn);
* ``satellite-bursty``: a :class:`~repro.mobility.tiered.TieredMedium` with a
  gateway-bridged satellite tier under Gilbert–Elliott burst loss;
* ``cluster-tree-bd``: a ``cluster-tree[bd]`` join/leave event chain in
  latency mode;
* ``adversary-inject-mitm``: an injector racing forgeries and a modifying
  man-in-the-middle against BD in instant mode.

Each capture is compact and hashed: a digest of the medium transcript and
receipts, a digest of every attached node's ledger, the runner's key
fingerprint, a digest of every member's key after every step, and the
per-step traffic, sim latency and timeouts.
``make_engine_equivalence.py`` writes the capture to
:data:`FIXTURE_RELPATH`; ``test_path_goldens.py`` re-runs the workloads and
compares.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Optional

from equivalence_workloads import _message_entry

from repro.adversary import AdversaryConfig
from repro.core import SystemSetup
from repro.energy import RADIO_100KBPS, WLAN_SPECTRUM24, DeviceProfile
from repro.engine import EngineConfig, TransceiverLatency
from repro.mobility import Area, MobilityConfig, RandomWaypoint
from repro.network.events import JoinEvent, LeaveEvent
from repro.network.tiers import TierConfig
from repro.pki import Identity
from repro.sim import Scenario, ScenarioRunner
from repro.sim.scenarios import BurstPartitions, PoissonChurn, TraceReplay
from repro.sim.specio import build_engine

__all__ = ["run_path_workloads", "PATH_WORKLOADS", "FIXTURE_RELPATH"]

#: Where the path-golden capture lives, relative to the tests directory.
FIXTURE_RELPATH = "fixtures/path_goldens.json"


def _digest(document: object) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _CapturingRunner(ScenarioRunner):
    """A scenario runner that keeps its medium and every member's keys.

    The report's key fingerprint only chains keys the group *agreed* on; the
    per-step member keys also pin which copy each member decoded when an
    attack breaks agreement.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.medium = None
        self.member_keys = []

    def _build_medium(self, scenario):
        medium, field = super()._build_medium(scenario)
        self.medium = medium
        return medium, field

    def _step(self, **kwargs):
        record, state = super()._step(**kwargs)
        keys = {} if state is None else state.keys_by_member()
        self.member_keys.append(sorted((name, f"{key:x}") for name, key in keys.items()))
        return record, state


def _capture(runner: _CapturingRunner, protocol: str, scenario: Scenario) -> Dict[str, object]:
    report = runner.run(protocol, scenario)
    medium = runner.medium
    receipts = [
        {
            "attempts": receipt.attempts,
            "delivered_to": [identity.name for identity in receipt.delivered_to],
            "hops": receipt.hops,
            "transmissions": receipt.transmissions,
            "relay_bits": receipt.relay_bits,
            "hop_by_receiver": receipt.hop_by_receiver,
        }
        for receipt in medium.receipts
    ]
    transcript = [_message_entry(message) for message in medium.transcript]
    return {
        "key_fingerprint": report.key_fingerprint,
        "member_keys": _digest(runner.member_keys),
        "messages": len(transcript),
        "transcript": _digest({"messages": transcript, "receipts": receipts}),
        "ledgers": {
            node.identity.name: _digest(node.recorder.snapshot())[:16]
            for node in sorted(medium.nodes, key=lambda node: node.identity.name)
        },
        "steps": [
            [r.kind, r.group_size, r.messages, r.bits, r.bits_with_retries,
             r.transmissions, r.relay_bits, r.agreed, r.aborted, r.attacks]
            for r in report.records
        ],
        "energy": _digest([sorted(r.energy_j.items()) for r in report.records]),
        "sim_time_s": [r.sim_latency_s for r in report.records],
        "timeouts": [r.timeouts for r in report.records],
    }


def _setup() -> SystemSetup:
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


def _radio_lossy_bd() -> Dict[str, object]:
    runner = _CapturingRunner(
        _setup(),
        device=DeviceProfile(transceiver=RADIO_100KBPS),
        engine=EngineConfig(latency=TransceiverLatency(RADIO_100KBPS)),
    )
    scenario = Scenario(
        name="path-radio-lossy",
        initial_size=16,
        schedule=PoissonChurn(length=6, join_rate=2.0, leave_rate=2.0),
        seed="path-golden",
        loss_probability=0.1,
    )
    return _capture(runner, "bd", scenario)


def _mobility_multihop() -> Dict[str, object]:
    runner = _CapturingRunner(
        _setup(),
        device=DeviceProfile(transceiver=WLAN_SPECTRUM24),
        engine=EngineConfig(
            latency=TransceiverLatency(WLAN_SPECTRUM24),
            round_timeout_s=0.5,
            max_timeout_waves=50,
        ),
    )
    # The n=50 field of the engine-latency benchmark: fully connected at
    # t=0, with an emergent partition, merge, leave and join.
    scenario = Scenario(
        name="rwp-50-engine",
        initial_size=50,
        mobility=MobilityConfig(
            model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
            area=Area(900.0, 900.0),
            tx_range=220.0,
            duration=120.0,
            tick=2.0,
            edge_loss=0.15,
            settle_ticks=2,
        ),
        seed="e3",
    )
    return _capture(runner, "bd", scenario)


def _satellite_bursty() -> Dict[str, object]:
    runner = _CapturingRunner(_setup(), engine=build_engine("tiered"))
    scenario = Scenario(
        name="path-sat-bursty",
        initial_size=12,
        schedule=BurstPartitions(bursts=2, burst_size=2, period=20.0),
        seed="path-golden",
        tiers=TierConfig(
            tiers={"ground": "ground", "sat": "satellite-bursty"},
            members={"sat": 2},
            gateways={"ground:sat": 1},
        ),
    )
    return _capture(runner, "proposed", scenario)


def _cluster_tree_bd() -> Dict[str, object]:
    runner = _CapturingRunner(
        _setup(), engine=EngineConfig(latency=TransceiverLatency(RADIO_100KBPS))
    )
    scenario = Scenario(
        name="path-cluster",
        initial_size=24,
        schedule=TraceReplay(
            events=(
                JoinEvent(joining=Identity("joiner-a")),
                LeaveEvent(leaving=Identity("member-005")),
                LeaveEvent(leaving=Identity("member-017")),
                JoinEvent(joining=Identity("joiner-b")),
            )
        ),
        seed="path-golden",
        loss_probability=0.05,
    )
    return _capture(runner, "cluster-tree[bd]", scenario)


def _adversary_inject_mitm() -> Dict[str, object]:
    # Instant mode: the forgery and the honest copy arrive at the same
    # instant, so the forgery only wins the race through its delivery order.
    runner = _CapturingRunner(_setup(), check_agreement=False)
    scenario = Scenario(
        name="path-attack",
        initial_size=6,
        schedule=TraceReplay(
            events=(
                LeaveEvent(leaving=Identity("member-003")),
                JoinEvent(joining=Identity("member-new")),
            )
        ),
        seed="path-golden",
        adversary=AdversaryConfig(injector=True, mitm=True),
    )
    return _capture(runner, "bd", scenario)


#: Workload name -> capture function, in capture order.
PATH_WORKLOADS: Dict[str, Callable[[], Dict[str, object]]] = {
    "radio-lossy-bd": _radio_lossy_bd,
    "mobility-multihop": _mobility_multihop,
    "satellite-bursty": _satellite_bursty,
    "cluster-tree-bd": _cluster_tree_bd,
    "adversary-inject-mitm": _adversary_inject_mitm,
}


def run_path_workloads(names: Optional[list] = None) -> Dict[str, object]:
    """Execute the named (default: all) path workloads; return the capture."""
    return {name: PATH_WORKLOADS[name]() for name in (names or PATH_WORKLOADS)}
