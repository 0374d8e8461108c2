"""The benchmark's four workloads: input generators and runners.

Every workload is built from ``(seed, seconds)`` alone.  ``generate()``
turns the seed into the inputs (an event stream, campaign field seeds);
``prepare()`` does the program's set-up up to the first protocol step;
``run()`` drives the program through its public entry points
(:meth:`repro.sim.ScenarioRunner.run`, :func:`repro.campaign.run_campaign`)
and returns a :class:`RunResult` with timings, checked outputs and
self-consistency problems.

Times are CPU seconds of this single-threaded process, read from
``Workload.clock`` (``time.process_time`` unless the caller installs a
:class:`hostspeed.SpeedMeter` clock, which leaves out its own samples).

``seconds`` sets the run length in fixed units of work (churn blocks,
establishment pairs, campaign replications), sized so that one run takes
about ``seconds`` on the commit that defined the benchmark.  The same
``seconds`` gives the same work on every commit: per-event cost grows with
run length (the runner re-sums the medium transcript every step), so run
length must not depend on how fast the code is.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro import telemetry
from repro.campaign import CampaignSpec, run_campaign
from repro.core import SystemSetup, create_protocol
from repro.energy import RADIO_100KBPS, WLAN_SPECTRUM24, DeviceProfile
from repro.engine import EngineConfig, TransceiverLatency
from repro.exceptions import ParameterError
from repro.network import JoinEvent, LeaveEvent
from repro.pki import Identity
from repro.sim import Scenario, ScenarioRunner, ScheduledEvent, TraceReplay, build_scenario

#: The parameter sets every workload runs on (256-bit test group).
PARAM_SETS = ("test-256", "gq-test-256")

#: Poisson churn: total event rate (per simulated second) and the kind mix.
#: Every block of five events holds exactly two joins and three leaves in a
#: seed-shuffled order, so the mix (and with it the per-event medians) is the
#: same on every seed while the order, timing and leavers vary.
CHURN_RATE = 6.0
CHURN_BLOCK = ("join", "join", "leave", "leave", "leave")

#: Nominal CPU seconds per unit of work, measured on the defining commit.
#: They only convert ``--seconds`` into a fixed amount of work.
NOMINAL_S = {
    "churn-proposed": 4.0,  # one five-event block at n=100
    "churn-bd-lossy": 4.0,  # one five-event block at n=100, 5% loss, radio latency
    "mobile-campaign": 8.0,  # one replication of the three-protocol grid
    "establish-wide": 7.0,  # one flat-BD + cluster-tree[bd] pair at n=400
}

#: The 50-node random-waypoint field of the telemetry-overhead benchmark.
MOBILITY = {
    "model": "random-waypoint",
    "min_speed": 3.0,
    "max_speed": 12.0,
    "area": [900.0, 900.0],
    "tx_range": 220.0,
    "duration": 120.0,
    "tick": 2.0,
    "edge_loss": 0.15,
    "settle_ticks": 2,
}
CAMPAIGN_PROTOCOLS = ("proposed", "bd-ecdsa", "cluster-tree[bd]")
#: Each replication's field is drawn until the whole 50-node group is
#: connected at t=0 and the motion emits exactly one join and one leave, so
#: every seed gives the same amount of work.  (Unconditioned, a field can
#: start with a single connected node, which fails the cell, or emit
#: anywhere from zero to nine events.)
FIELD_SIZE = 50
FIELD_EVENTS = ("join", "leave")

#: Cells that fail at the defining commit for a known defect, with the error
#: they raise.  They stay in the grid and are reported as failed; they have
#: no reference output, so a fix turns them into checked, passing cells.
KNOWN_DEFECTS = {
    "cluster-tree[bd]": "AttributeError: 'tuple' object has no attribute 'x'",
}


def work_units(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_S[workload]))


@dataclass
class RunResult:
    """What one pass over a workload produced."""

    #: (start, end) readings of ``Workload.clock`` for each establishment
    #: step and for each of the workload's repeated operations, in run order
    establish: List[Tuple[float, float]] = field(default_factory=list)
    events: List[Tuple[float, float]] = field(default_factory=list)
    #: how many leading (trailing) operations make the first (last) quarter
    quarter: int = 1
    #: independent scenario runs (cells) that finished, and the CPU seconds
    #: spent running all of them
    cells_ok: int = 0
    cells_s: float = 0.0
    #: outputs compared against the reference and between passes
    outputs: Dict[str, object] = field(default_factory=dict)
    #: self-consistency violations (each one is a failed operation)
    problems: List[str] = field(default_factory=list)
    attempted: int = 0
    #: cells that failed exactly as a registered known defect
    known_failures: List[str] = field(default_factory=list)
    #: deterministic traffic totals (messages, transmissions, relay bits)
    traffic: Dict[str, int] = field(default_factory=dict)
    #: campaign cache accounting (empty outside mobile-campaign)
    campaign: Dict[str, float] = field(default_factory=dict)
    #: wall and CPU seconds of the whole pass
    wall: float = 0.0
    cpu: float = 0.0


class _StepClock:
    """Start times of a protocol's top-level ``run``/``apply_event`` calls.

    Installed on the protocol *instance* handed to the runner, so each step
    is timed from outside the program: from the start of one step to the
    start of the next (or the end of the run), which includes the runner's
    per-step bookkeeping.
    """

    def __init__(self, protocol, clock: Callable[[], float]) -> None:
        self.marks: List[float] = []
        self._clock = clock
        self._depth = 0
        for name in ("run", "apply_event"):
            setattr(protocol, name, self._timed(getattr(protocol, name)))

    def _timed(self, method: Callable) -> Callable:
        def timed(*args, **kwargs):
            # Re-executing baselines call run() from apply_event(): only the
            # outermost call starts a step.
            if self._depth == 0:
                self.marks.append(self._clock())
            self._depth += 1
            try:
                return method(*args, **kwargs)
            finally:
                self._depth -= 1

        return timed

    def steps(self, end: float) -> List[Tuple[float, float]]:
        bounds = self.marks + [end]
        return list(zip(bounds, bounds[1:]))


def _step_outputs(report) -> Dict[str, object]:
    return {
        "key_fingerprint": report.key_fingerprint,
        "total_energy_j": report.total_energy_j,
        "steps": [
            [r.kind, r.messages, r.bits, r.bits_with_retries, r.timeouts, r.sim_latency_s]
            for r in report.records
        ],
    }


def _add_traffic(result: RunResult, messages: int, transmissions: int, relay_bits: int) -> None:
    for key, value in (
        ("messages", messages),
        ("transmissions", transmissions),
        ("relay_bits", relay_bits),
    ):
        result.traffic[key] = result.traffic.get(key, 0) + value


class Workload:
    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.units = work_units(self.name, seconds)
        self.clock: Callable[[], float] = time.process_time

    @property
    def size(self) -> Dict[str, object]:
        """The run-length parameters a reference output is valid for."""
        return {"units": self.units}

    def label(self, suffix: str) -> str:
        return f"perfbench/{self.name}/{self.seed}/{suffix}"

    def generate(self) -> None:
        """Derive the inputs from the seed (not part of the set-up time)."""

    def prepare(self) -> None:
        self.setup = SystemSetup.from_param_sets(*PARAM_SETS)

    def run(self) -> RunResult:
        wall, cpu = time.perf_counter(), self.clock()
        result = self.execute()
        result.wall, result.cpu = time.perf_counter() - wall, self.clock() - cpu
        return result

    def execute(self) -> RunResult:
        raise NotImplementedError

    def run_scenario(self, result: RunResult, protocol_name: str, scenario: Scenario, key: str):
        """One ``ScenarioRunner.run`` (one cell): record it, return the
        report and the (start, end) clock readings of each step."""
        protocol = create_protocol(protocol_name, self.setup)
        steps = _StepClock(protocol, self.clock)
        started = self.clock()
        report = self.runner.run(protocol, scenario)
        ended = self.clock()
        spans = steps.steps(ended)
        result.cells_s += ended - started
        result.attempted += len(report.records)
        result.outputs[key] = _step_outputs(report)
        _add_traffic(result, report.total_messages, report.total_transmissions,
                     report.total_relay_bits)
        disagreed = [r.index for r in report.records if not r.agreed]
        if disagreed:
            result.problems.append(f"{key}: members disagree after steps {disagreed}")
        elif len(spans) != len(report.records):
            result.problems.append(f"{key}: {len(spans)} timed steps, {len(report.records)} records")
        else:
            result.cells_ok += 1
        return report, spans


class ChurnWorkload(Workload):
    """Poisson join/leave churn over an n=100 group under one protocol."""

    protocol = ""
    group_size = 100
    loss = 0.0
    #: establishment-only runs before the churn run (see ``prepare``)
    extra_establishments = 4

    def device(self) -> DeviceProfile:
        raise NotImplementedError

    def engine(self) -> Optional[EngineConfig]:
        return None

    def generate(self) -> None:
        """Poisson arrivals in balanced blocks of joins and leaves."""
        rng = random.Random(self.label("events"))
        members = [f"member-{i:03d}" for i in range(self.group_size)]
        joined = 0
        now = 0.0
        self.stream: List[ScheduledEvent] = []
        for _ in range(self.units):
            kinds = list(CHURN_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                now += rng.expovariate(CHURN_RATE)
                if kind == "join":
                    joined += 1
                    name = f"joiner-{joined:03d}"
                    members.append(name)
                    event = JoinEvent(joining=Identity(name))
                else:
                    # never the controller, member-000
                    name = members.pop(rng.randrange(1, len(members)))
                    event = LeaveEvent(leaving=Identity(name))
                self.stream.append(ScheduledEvent(time=now, event=event))

    def prepare(self) -> None:
        super().prepare()
        self.scenario = Scenario(
            name=f"{self.name}-{self.seed}",
            initial_size=self.group_size,
            schedule=TraceReplay(events=tuple(self.stream)),
            seed=self.label("scenario"),
            loss_probability=self.loss,
        )
        # Establishment-only runs of fresh groups, so establish_s averages
        # several samples, not one.
        self.establishments = [
            Scenario(
                name=f"{self.name}-{self.seed}-establish-{k}",
                initial_size=self.group_size,
                seed=self.label(f"establish/{k}"),
                loss_probability=self.loss,
                member_prefix=f"s{self.seed}e{k}",
            )
            for k in range(self.extra_establishments)
        ]
        self.runner = ScenarioRunner(self.setup, device=self.device(), engine=self.engine())

    def execute(self) -> RunResult:
        result = RunResult()
        for k, scenario in enumerate(self.establishments):
            _, spans = self.run_scenario(result, self.protocol, scenario, f"establish/{k}")
            result.establish += spans
        report, spans = self.run_scenario(result, self.protocol, self.scenario, self.protocol)
        result.establish += spans[:1]
        result.events = spans[1:]
        # whole blocks, so both quarters hold the same kind mix
        result.quarter = len(CHURN_BLOCK) * max(1, round(self.units / 4))
        expected = [("establish", 0.0)] + [(e.kind, e.time) for e in self.stream]
        if [(r.kind, r.time) for r in report.records] != expected:
            result.problems.append(f"{self.protocol}: event stream differs from the generated one")
        return result


class ChurnProposed(ChurnWorkload):
    name = "churn-proposed"
    protocol = "proposed"

    def device(self) -> DeviceProfile:
        return DeviceProfile(transceiver=WLAN_SPECTRUM24)


class ChurnBDLossy(ChurnWorkload):
    name = "churn-bd-lossy"
    protocol = "bd"
    loss = 0.05
    # Under loss an establishment needs one to four retransmission waves
    # (0.36 to 0.82 s), so the mean needs more samples to settle.
    extra_establishments = 12

    def device(self) -> DeviceProfile:
        return DeviceProfile(transceiver=RADIO_100KBPS)

    def engine(self) -> Optional[EngineConfig]:
        return EngineConfig(latency=TransceiverLatency(RADIO_100KBPS))


class EstablishWide(Workload):
    """Flat BD and cluster-tree[bd] establishments at n=400, no churn."""

    name = "establish-wide"
    protocols = ("bd", "cluster-tree[bd]")
    group_size = 400

    def prepare(self) -> None:
        super().prepare()
        # A fresh group per pair: member names and seed both derive from it.
        self.scenarios = [
            Scenario(
                name=f"{self.name}-{self.seed}-{pair}",
                initial_size=self.group_size,
                seed=self.label(f"pair/{pair}"),
                member_prefix=f"s{self.seed}p{pair}",
            )
            for pair in range(self.units)
        ]
        self.runner = ScenarioRunner(self.setup)

    def execute(self) -> RunResult:
        result = RunResult()
        for pair, scenario in enumerate(self.scenarios):
            sizes = []
            for name in self.protocols:
                report, spans = self.run_scenario(result, name, scenario, f"{pair}/{name}")
                result.establish += spans
                result.events += spans
                sizes.append([r.group_size for r in report.records])
            if any(s != sizes[0] for s in sizes):
                result.problems.append(f"pair {pair}: protocols saw different groups")
        result.quarter = max(1, len(result.events) // 4)
        return result


class _StepRecorder(telemetry.MetricsRegistry):
    """A metrics registry that also times the campaign's steps.

    The cells build their protocols inside the campaign, so steps are timed
    between the runner's own ``scenario.step_wall_s`` observations (one
    after every step): a cell's first step runs from the end of the previous
    cell and so includes the cell's scenario build.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        super().__init__()
        self.cells: List[List[Tuple[float, float]]] = [[]]
        self.clock = clock
        self.last = clock()

    def observe(self, name: str, value: float) -> None:
        super().observe(name, value)
        if name == "scenario.step_wall_s":
            now = self.clock()
            self.cells[-1].append((self.last, now))
            self.last = now
        elif name == "campaign.cell_wall_s":
            self.cells.append([])
            self.last = self.clock()


class MobileCampaign(Workload):
    """A cold campaign over a fresh cache directory, then a warm replay."""

    name = "mobile-campaign"

    def __init__(self, seed: int, seconds: float, out_dir: str = ".") -> None:
        super().__init__(seed, seconds)
        self.out_dir = out_dir

    def _spec(self) -> CampaignSpec:
        return CampaignSpec(
            name=self.name,
            protocols=CAMPAIGN_PROTOCOLS,
            group_sizes=(FIELD_SIZE,),
            mobilities=(("rwp-50", MOBILITY),),
            seed=self.label("campaign"),
            replications=self.units,
        )

    def generate(self) -> None:
        """The first seed of each replication whose field meets the condition."""
        # The scenario name (one per replication) labels the field's random
        # streams, so each replication is drawn under its own spec.
        templates = {cell.axes["rep"]: cell.payload["scenario"] for cell in self._spec().cells()}
        self.field_seeds = [self._field_seed(templates[rep], rep) for rep in range(self.units)]

    def _field_seed(self, template: Dict[str, object], rep: int) -> str:
        for attempt in range(1000):
            seed = self.label(f"field/{rep}/{attempt}")
            scenario = build_scenario({**template, "seed": seed})
            try:
                members = scenario.initial_members()
            except ParameterError:  # too few nodes connected at t=0
                continue
            kinds = sorted(event.kind for event in scenario.build_events())
            if len(members) == FIELD_SIZE and kinds == sorted(FIELD_EVENTS):
                return seed
        raise RuntimeError(f"no field for replication {rep} met the condition")

    def prepare(self) -> None:
        super().prepare()
        self.spec = self._spec()
        self.cells = [
            replace(cell, payload={
                **cell.payload,
                "scenario": {**cell.payload["scenario"], "seed": self.field_seeds[cell.axes["rep"]]},
            })
            for cell in self.spec.cells()
        ]

    def execute(self) -> RunResult:
        result = RunResult()
        os.makedirs(self.out_dir, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        recorder = _StepRecorder(self.clock)
        previous = telemetry.install(telemetry.active_tracer(), recorder)
        try:
            recorder.last = started = self.clock()
            cold = run_campaign(self.spec, workers=1, cache_dir=cache_dir, cells=self.cells)
            cold_s = self.clock() - started
            started = self.clock()
            warm = run_campaign(self.spec, workers=1, cache_dir=cache_dir, cells=self.cells)
            warm_s = self.clock() - started
        finally:
            telemetry.uninstall(previous)
            shutil.rmtree(cache_dir, ignore_errors=True)
        if previous[1] is not None:
            previous[1].merge(recorder.snapshot())

        rows = cold.deterministic_rows()
        result.cells_s = cold_s
        result.attempted = len(rows)
        ok_rows = []
        for row, steps in zip(rows, recorder.cells):
            if row["error"]:
                if KNOWN_DEFECTS.get(row["protocol"]) == row["error"]:
                    result.known_failures.append(f"{row['cell']}: {row['error']}")
                else:
                    result.problems.append(f"{row['cell']}: {row['error']}")
                continue
            if not row["agreed"] or len(steps) != row["steps"]:
                result.problems.append(f"{row['cell']}: disagreement or missing step times")
                continue
            ok_rows.append(row)
            result.establish += steps[:1]
            result.events += steps[1:]
            _add_traffic(result, row["messages"], row["transmissions"], row["relay_bits"])
        result.cells_ok = len(ok_rows)
        # Failed cells have no checked output: a fix must not read as a
        # mismatch against the reference.
        result.outputs = {row["cell"]: row for row in ok_rows}
        result.quarter = max(1, len(result.events) // 4)
        # Every protocol of a replication replays the same field: the same
        # emergent event stream.
        streams: Dict[int, set] = {}
        for row in ok_rows:
            streams.setdefault(row["rep"], set()).add((row["steps"], row["events"]))
        for rep, seen in streams.items():
            if len(seen) > 1:
                result.problems.append(f"rep {rep}: protocols saw different event streams {sorted(seen)}")
        # The warm pass must replay every completed cell from the cache.
        for row, again in zip(rows, warm.deterministic_rows()):
            if not row["error"] and again != row:
                result.problems.append(f"{row['cell']}: warm replay differs from the cold run")
        result.campaign = {
            "cache_hits": warm.cache_hits,
            "cache_misses": cold.cache_misses,
            "hit_frac": warm.cache_hits / max(1, len(ok_rows)),
            "replay_s": warm_s,
        }
        return result


WORKLOADS = {
    cls.name: cls for cls in (ChurnProposed, ChurnBDLossy, MobileCampaign, EstablishWide)
}


def build(name: str, seed: int, seconds: float, out_dir: str) -> Workload:
    """The workload with its inputs generated (program set-up not yet done)."""
    cls = WORKLOADS[name]
    workload = cls(seed, seconds, out_dir) if cls is MobileCampaign else cls(seed, seconds)
    workload.generate()
    return workload
