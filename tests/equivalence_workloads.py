"""Shared workloads for the engine equivalence suite.

The reactive engine refactor (per-party round state machines driven by a
virtual-time event kernel) must leave the synchronous ``Protocol.run()`` /
``apply_event()`` path *bit-identical*: same group keys, same medium
transcript (order, senders, labels, wire sizes, payload values), same
per-node energy ledgers.  This module defines the canonical workloads and
capture format; ``make_engine_equivalence.py`` froze their output from the
pre-refactor code into ``tests/fixtures/engine_equivalence.json``, and
``test_engine_equivalence.py`` re-runs them against the current code and
compares byte for byte.

The workloads cover, for every registry protocol:

* a lossless 5-member establishment,
* a lossy 5-member establishment (per-broadcast loss with seeded retries),
* a join → leave → merge → partition event chain over a shared medium
  (native dynamic sub-protocols for the proposed scheme, re-execution for
  every baseline).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.core import SystemSetup
from repro.core.registry import available_protocols, create_protocol, protocol_tags
from repro.mathutils.rand import DeterministicRNG
from repro.network.events import JoinEvent, LeaveEvent, MergeEvent, PartitionEvent
from repro.network.medium import BroadcastMedium
from repro.pki import Identity

__all__ = ["run_workloads", "flat_protocols", "FIXTURE_RELPATH"]

#: Where the golden capture lives, relative to the tests directory.
FIXTURE_RELPATH = "fixtures/engine_equivalence.json"


# ---------------------------------------------------------------------------
# Capture helpers
# ---------------------------------------------------------------------------

def _encode_value(value: object) -> str:
    """A stable textual encoding of one message-part value."""
    if isinstance(value, int):
        return f"int:{value:x}"
    if isinstance(value, bytes):
        return f"bytes:{value.hex()}"
    if isinstance(value, str):
        return f"str:{value}"
    if isinstance(value, Identity):
        return f"identity:{value.name}"
    to_bytes = getattr(value, "to_bytes", None)
    if callable(to_bytes):  # AuthenticatedCiphertext and friends
        return f"{type(value).__name__}:{to_bytes().hex()}"
    components = getattr(value, "components", None)
    if components is not None:  # Signature
        inner = ",".join(f"{k}={components[k]:x}" for k in sorted(components))
        return f"sig:{getattr(value, 'scheme', '?')}:{inner}"
    tbs = getattr(value, "tbs_bytes", None)
    if callable(tbs):  # Certificate
        signature = _encode_value(value.ca_signature)
        return f"cert:{tbs().hex()}:{signature}"
    return f"repr:{value!r}"


def _message_entry(message) -> Dict[str, object]:
    hasher = hashlib.sha256()
    for part in message.parts:
        hasher.update(f"{part.name}|{part.bits}|{_encode_value(part.value)}|".encode())
    recipients = (
        None
        if message.recipients is None
        else sorted(identity.name for identity in message.recipients)
    )
    return {
        "sender": message.sender.name,
        "round": message.round_label,
        "bits": message.wire_bits,
        "recipients": recipients,
        "digest": hasher.hexdigest(),
    }


def _capture_medium(medium: BroadcastMedium) -> Dict[str, object]:
    return {
        "transcript": [_message_entry(message) for message in medium.transcript],
        "attempts": [receipt.attempts for receipt in medium.receipts],
        "total_bits": medium.total_bits(),
        "total_bits_with_retries": medium.total_bits(include_retries=True),
    }


def _capture_result(result) -> Dict[str, object]:
    state = result.state
    key = result.group_key
    return {
        "protocol": result.protocol,
        "rounds": result.rounds,
        "group_key": None if key is None else f"{key:x}",
        "member_keys": {
            name: (None if k is None else f"{k:x}")
            for name, k in sorted(state.keys_by_member().items())
        },
        "ring": [identity.name for identity in state.members],
        "ledgers": {
            name: dict(sorted(recorder.snapshot().items()))
            for name, recorder in sorted(state.recorders().items())
        },
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _fresh_setup() -> SystemSetup:
    return SystemSetup.from_param_sets("test-256", "gq-test-256")


def _members(count: int, prefix: str) -> List[Identity]:
    return [Identity(f"{prefix}-{i:02d}") for i in range(count)]


def _lossless_run(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    result = protocol.run(_members(5, "eq"), seed=101)
    return {"result": _capture_result(result), "medium": _capture_medium(result.medium)}


def _lossy_run(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium(
        loss_probability=0.25,
        max_retries=50,
        rng=DeterministicRNG(f"eq/{protocol_name}", label="medium"),
    )
    result = protocol.run(_members(5, "eql"), medium=medium, seed=202)
    return {"result": _capture_result(result), "medium": _capture_medium(result.medium)}


def _event_chain(protocol_name: str) -> Dict[str, object]:
    setup = _fresh_setup()
    protocol = create_protocol(protocol_name, setup)
    medium = BroadcastMedium()
    result = protocol.run(_members(6, "eqd"), medium=medium, seed=303)
    steps = [{"kind": "establish", **_capture_result(result)}]
    state = result.state

    events = [
        ("join", lambda s: JoinEvent(joining=Identity("eqd-new"))),
        ("leave", lambda s: LeaveEvent(leaving=s.members[2])),
        (
            "merge",
            lambda s: MergeEvent(other_group=tuple(_members(3, "eqm"))),
        ),
        (
            "partition",
            lambda s: PartitionEvent(leaving=(s.members[1], s.members[3])),
        ),
    ]
    for position, (kind, build) in enumerate(events, start=1):
        event = build(state)
        result = protocol.apply_event(state, event, medium=medium, seed=300 + position)
        state = result.state
        steps.append({"kind": kind, **_capture_result(result)})
    return {"steps": steps, "medium": _capture_medium(medium)}


def flat_protocols() -> List[str]:
    """The registry's flat protocols — the ones the golden capture pins.

    The hierarchical ``cluster`` protocols are excluded by tag rather than by
    name: they were added after the fixture was frozen and their state is
    sparse per-cluster, so they carry their own correctness suite
    (``test_cluster.py``) instead of a seed capture.
    """
    return [
        name
        for name in available_protocols()
        if "cluster" not in protocol_tags(name)
    ]


def run_workloads() -> Dict[str, object]:
    """Execute every equivalence workload and return the capture dictionary."""
    capture: Dict[str, object] = {}
    for protocol_name in flat_protocols():
        capture[protocol_name] = {
            "lossless": _lossless_run(protocol_name),
            "lossy": _lossy_run(protocol_name),
            "events": _event_chain(protocol_name),
        }
    return capture
