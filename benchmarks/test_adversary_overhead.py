"""Adversary-instrumentation overhead on the no-attack path (n=50 mobility).

The adversary subsystem adds a tap consultation to every physical send and
an interception/injection check to every kernel transmission.  This
benchmark pins two claims on the acceptance-sized workload (50 random
waypoint nodes, emergent churn, multi-hop relaying):

* attaching a *passive* adversary changes nothing measurable: per-member
  energy ledgers, traffic counters and keys are bit-identical to the honest
  run;
* the instrumentation's wall-time overhead on the honest path stays within
  noise (the run is dominated by modular arithmetic, not by the taps).

Printed alongside: the attacked variant of the same workload, so the cost of
an *active* adversary is visible next to the passive bound.
"""

from __future__ import annotations

import time

import pytest

from repro.adversary import AdversaryConfig
from repro.mobility import Area, MobilityConfig, RandomWaypoint
from repro.sim import Scenario, ScenarioRunner

GROUP_SIZE = 50
PROTOCOL = "proposed"

#: Generous wall-time ratio bound: shared-CI boxes jitter, and a false red
#: here would be pure noise.  The real regression guard is the bit-identical
#: assertion — any adversary-path work leaking into honest runs shows up
#: there first.
MAX_OVERHEAD_RATIO = 1.5
#: Timed runs per side; the sides alternate and each contributes its best.
REPEATS = 3


@pytest.fixture(scope="module")
def mobility_scenario():
    return Scenario(
        name="adversary-overhead",
        initial_size=GROUP_SIZE,
        mobility=MobilityConfig(
            model=RandomWaypoint(min_speed=3.0, max_speed=12.0),
            area=Area(900.0, 900.0),
            tx_range=220.0,
            duration=120.0,
            tick=2.0,
            edge_loss=0.15,
            settle_ticks=2,
        ),
        seed="b18",
    )


@pytest.fixture(scope="module")
def overhead_runs(small_setup, mobility_scenario, wlan_profile):
    runner = ScenarioRunner(small_setup, device=wlan_profile)
    scenarios = {
        "honest": mobility_scenario,
        "tapped": mobility_scenario.with_adversary(AdversaryConfig()),
    }
    reports = {}
    walls = {label: [] for label in scenarios}
    # Honest and tapped runs alternate, and the ratio compares best against
    # best: warm-up, drift and GC pauses then hit both sides alike.
    for _ in range(REPEATS):
        for label, scenario in scenarios.items():
            started = time.perf_counter()
            report = runner.run(PROTOCOL, scenario)
            walls[label].append(time.perf_counter() - started)
            reports.setdefault(label, report)
    return reports, walls


def _ratio(walls) -> float:
    return min(walls["tapped"]) / min(walls["honest"])


def test_print_overhead(overhead_runs):
    reports, walls = overhead_runs
    print()
    for label, report in reports.items():
        times = " ".join(f"{wall:.2f}" for wall in walls[label])
        print(
            f"{label:<7} walls={times}s energy={report.total_energy_j:.6f} J "
            f"messages={report.total_messages} attacks={report.total_attacks}"
        )
    print(f"passive-tap overhead ratio: {_ratio(walls):.3f}x")


def test_passive_adversary_is_bit_identical(overhead_runs):
    reports, _ = overhead_runs
    honest, tapped = reports["honest"], reports["tapped"]
    assert honest.per_member_energy_j() == tapped.per_member_energy_j()
    assert honest.total_messages == tapped.total_messages
    assert honest.total_bits(include_retries=True) == tapped.total_bits(include_retries=True)
    assert honest.total_transmissions == tapped.total_transmissions
    assert [r.kind for r in honest.records] == [r.kind for r in tapped.records]
    assert tapped.total_attacks == 0
    assert tapped.agreed_throughout and honest.agreed_throughout


def test_instrumentation_overhead_within_noise(overhead_runs):
    _, walls = overhead_runs
    ratio = _ratio(walls)
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"passive adversary instrumentation cost {ratio:.2f}x "
        f"on the no-attack path (budget {MAX_OVERHEAD_RATIO}x)"
    )


def test_active_attack_on_the_same_workload_is_classified(
    small_setup, mobility_scenario, wlan_profile
):
    # The same n=50 emergent-churn workload under injection: the proposed
    # protocol must detect (abort) or resist (recover) — never fall silently.
    runner = ScenarioRunner(small_setup, device=wlan_profile, check_agreement=False)
    report = runner.run(
        PROTOCOL, mobility_scenario.with_adversary(AdversaryConfig.preset("inject"))
    )
    assert report.total_attacks > 0
    assert report.security_verdict in ("detected", "resisted")
