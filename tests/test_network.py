"""Tests for the simulated network: messages, medium, nodes, topology, events."""

from __future__ import annotations

import dataclasses

import pytest

from repro.energy import DeviceProfile
from repro.exceptions import MembershipError, NetworkError, ParameterError
from repro.mathutils.rand import DeterministicRNG
from repro.network import (
    BroadcastMedium,
    EventTraceGenerator,
    JoinEvent,
    LeaveEvent,
    MergeEvent,
    Message,
    MessagePart,
    Node,
    PartitionEvent,
    RingTopology,
    group_element_part,
    identity_part,
)
from repro.pki import Identity


def _message(sender: Identity, label: str = "round1", bits: int = 1000) -> Message:
    return Message.broadcast(sender, label, [MessagePart("payload", b"x", bits)])


class TestMessage:
    def test_wire_bits_sums_parts(self):
        sender = Identity("a")
        message = Message.broadcast(
            sender,
            "round1",
            [identity_part(sender), group_element_part("z", 5, 1024), MessagePart("sig", b"s", 320)],
        )
        assert message.wire_bits == 32 + 1024 + 320

    def test_wire_bits_fixed_at_build_time(self):
        sender = Identity("a")
        message = Message.broadcast(
            sender, "round1", [identity_part(sender), group_element_part("z", 5, 1024)]
        )
        assert message.wire_bits == sum(part.bits for part in message.parts) == 1056
        resized = dataclasses.replace(message, parts=(MessagePart("sig", b"s", 320),))
        assert resized.wire_bits == 320
        relabelled = dataclasses.replace(message, round_label="round2")
        assert relabelled.wire_bits == 1056

    def test_wire_bits_left_out_of_equality_and_repr(self):
        sender = Identity("a")
        message = _message(sender)
        twin = _message(sender)
        object.__setattr__(twin, "wire_bits", 0)
        assert message == twin and hash(message) == hash(twin)
        assert "wire_bits" not in repr(message)
        assert "wire_bits" not in [f.name for f in dataclasses.fields(message) if f.init]

    def test_part_access(self):
        sender = Identity("a")
        message = Message.broadcast(sender, "r", [group_element_part("z", 7, 128)])
        assert message.value("z") == 7
        assert message.has_part("z") and not message.has_part("w")
        assert message.part_names() == ["z"]
        with pytest.raises(ParameterError):
            message.part("missing")

    def test_duplicate_part_names_rejected(self):
        sender = Identity("a")
        with pytest.raises(ParameterError):
            Message.broadcast(sender, "r", [MessagePart("x", 1, 8), MessagePart("x", 2, 8)])

    def test_negative_part_size_rejected(self):
        with pytest.raises(ParameterError):
            MessagePart("x", 1, -8)

    def test_addressing(self):
        a, b, c = Identity("a"), Identity("b"), Identity("c")
        broadcast = _message(a)
        assert broadcast.is_broadcast
        assert broadcast.addressed_to(b) and broadcast.addressed_to(c)
        assert not broadcast.addressed_to(a)
        unicast = Message.unicast(a, b, "r", [MessagePart("x", 1, 8)])
        assert unicast.addressed_to(b) and not unicast.addressed_to(c)


class TestBroadcastMedium:
    def test_broadcast_charges_sender_and_receivers(self):
        medium = BroadcastMedium()
        nodes = [Node(Identity(f"n{i}")) for i in range(4)]
        for node in nodes:
            medium.attach(node)
        message = _message(nodes[0].identity, bits=500)
        receipt = medium.send(message)
        assert receipt.attempts == 1
        assert receipt.delivered_to == [node.identity for node in nodes[1:]]
        assert nodes[0].recorder.tx_bits == 500
        assert nodes[0].recorder.rx_bits == 0
        for node in nodes[1:]:
            assert node.recorder.rx_bits == 500

    def test_unicast_only_reaches_recipient(self):
        medium = BroadcastMedium()
        a, b, c = (Node(Identity(x)) for x in "abc")
        for node in (a, b, c):
            medium.attach(node)
        message = Message.unicast(a.identity, b.identity, "r", [MessagePart("x", 1, 100)])
        medium.send(message)
        assert b.recorder.rx_bits == 100
        assert c.recorder.rx_bits == 0

    def test_unknown_sender_raises(self):
        medium = BroadcastMedium()
        with pytest.raises(NetworkError):
            medium.send(_message(Identity("ghost")))

    def test_detach_stops_delivery(self):
        medium = BroadcastMedium()
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        medium.detach(b.identity)
        medium.send(_message(a.identity))
        assert b.recorder.rx_bits == 0
        assert b.identity not in medium
        assert len(medium) == 1

    def test_lossy_medium_retransmits(self):
        medium = BroadcastMedium(loss_probability=0.5, rng=DeterministicRNG("loss"))
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        receipts = [medium.send(_message(a.identity, bits=10)) for _ in range(50)]
        attempts = [r.attempts for r in receipts]
        assert max(attempts) > 1  # some losses occurred
        assert a.recorder.tx_bits == 10 * sum(attempts)

    def test_excessive_loss_raises(self):
        medium = BroadcastMedium(loss_probability=0.99, max_retries=2, rng=DeterministicRNG("bad"))
        a = Node(Identity("a"))
        medium.attach(a)
        with pytest.raises(NetworkError):
            for _ in range(50):
                medium.send(_message(a.identity))

    def test_invalid_loss_probability(self):
        with pytest.raises(NetworkError):
            BroadcastMedium(loss_probability=1.5)

    def test_transcript_queries(self):
        medium = BroadcastMedium()
        a, b = Node(Identity("a")), Node(Identity("b"))
        medium.attach(a)
        medium.attach(b)
        medium.send(_message(a.identity, "round1", 10))
        medium.send(_message(b.identity, "round2", 20))
        assert medium.total_messages() == 2
        assert medium.total_bits() == 30
        assert len(medium.messages_for_round("round1")) == 1


class TestNode:
    def test_energy_requires_profile(self):
        node = Node(Identity("n"))
        with pytest.raises(NetworkError):
            node.energy()
        node.recorder.record_tx(1000)
        breakdown = node.energy(DeviceProfile())
        assert breakdown.tx_j > 0

    def test_reset_costs(self):
        node = Node(Identity("n"))
        node.recorder.record_tx(100)
        node.reset_costs()
        assert node.recorder.tx_bits == 0


class TestRingTopology:
    def test_basic_structure(self, members):
        ring = RingTopology(members)
        assert ring.size == len(members)
        assert ring.controller() == members[0]
        assert ring.last() == members[-1]
        assert ring.index_of(members[2]) == 3
        assert ring.member_at(1) == members[0]
        assert ring.member_at(len(members) + 1) == members[0]  # wrap-around

    def test_neighbours_wrap(self, members):
        ring = RingTopology(members)
        assert ring.left_neighbour(members[0]) == members[-1]
        assert ring.right_neighbour(members[-1]) == members[0]
        assert ring.right_neighbour(members[2]) == members[3]

    def test_odd_even_indexed(self, members):
        ring = RingTopology(members)
        odd = ring.odd_indexed()
        even = ring.even_indexed()
        assert members[0] in odd and members[1] in even
        assert len(odd) + len(even) == len(members)
        assert members[2] not in ring.odd_indexed(exclude=[members[2]])

    def test_join_leave_partition_merge(self, members):
        ring = RingTopology(members)
        newcomer = Identity("newcomer")
        joined = ring.with_join(newcomer)
        assert joined.size == ring.size + 1 and joined.last() == newcomer
        left = joined.with_leave(members[3])
        assert members[3] not in left
        partitioned = left.with_partition([members[1], members[4]])
        assert partitioned.size == left.size - 2
        other = RingTopology([Identity("x1"), Identity("x2")])
        merged = partitioned.merged_with(other)
        assert merged.size == partitioned.size + 2

    def test_error_cases(self, members):
        ring = RingTopology(members)
        with pytest.raises(ParameterError):
            RingTopology(members[:1])
        with pytest.raises(ParameterError):
            RingTopology(members + [members[0]])
        with pytest.raises(MembershipError):
            ring.with_join(members[0])
        with pytest.raises(MembershipError):
            ring.with_leave(Identity("ghost"))
        with pytest.raises(MembershipError):
            ring.with_partition([Identity("ghost")])
        with pytest.raises(MembershipError):
            ring.with_partition(members[1:])  # would leave fewer than 2 members
        with pytest.raises(MembershipError):
            ring.merged_with(RingTopology(members[:2]))
        with pytest.raises(MembershipError):
            ring.index_of(Identity("ghost"))


class TestEventTraces:
    def test_trace_is_deterministic(self, members):
        gen_a = EventTraceGenerator(DeterministicRNG("trace"))
        gen_b = EventTraceGenerator(DeterministicRNG("trace"))
        trace_a = gen_a.trace(members, 20)
        trace_b = gen_b.trace(members, 20)
        assert [type(e).__name__ for e in trace_a] == [type(e).__name__ for e in trace_b]

    def test_trace_respects_minimum_group_size(self, members):
        generator = EventTraceGenerator(
            DeterministicRNG("shrink"), join_weight=0.0, leave_weight=10.0, merge_weight=0.0, partition_weight=5.0
        )
        current = list(members)
        for event in generator.trace(members, 30, min_group_size=3):
            if isinstance(event, LeaveEvent):
                current = [m for m in current if m.name != event.leaving.name]
            elif isinstance(event, PartitionEvent):
                gone = {i.name for i in event.leaving}
                current = [m for m in current if m.name not in gone]
            elif isinstance(event, JoinEvent):
                current.append(event.joining)
            elif isinstance(event, MergeEvent):
                current.extend(event.other_group)
            assert len(current) >= 3

    def test_controller_never_evicted(self, members):
        generator = EventTraceGenerator(DeterministicRNG("ctrl"), join_weight=1, leave_weight=10)
        for event in generator.trace(members, 40):
            if isinstance(event, LeaveEvent):
                assert event.leaving.name != members[0].name
            if isinstance(event, PartitionEvent):
                assert members[0].name not in {i.name for i in event.leaving}

    def test_event_mix(self, members):
        generator = EventTraceGenerator(DeterministicRNG("mix"), merge_weight=5, partition_weight=5)
        kinds = {type(e).__name__ for e in generator.trace(members, 60)}
        assert {"JoinEvent", "LeaveEvent"} <= kinds
        assert "MergeEvent" in kinds or "PartitionEvent" in kinds

    def test_invalid_weights(self):
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0), join_weight=-1)
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0), join_weight=0, leave_weight=0, merge_weight=0, partition_weight=0)
        with pytest.raises(ParameterError):
            EventTraceGenerator(DeterministicRNG(0)).trace([], -1)
