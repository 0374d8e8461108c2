"""Tests for the algebraic-group substrate: Schnorr groups, elliptic curves,
named parameters and the simulated pairing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.groups.curves import CURVES, NIST_P192, NIST_P256, SECP160R1, TINY_CURVE, get_curve
from repro.groups.elliptic import ECPoint, EllipticCurve, ec_multi_scalar
from repro.groups.pairing import G1Element, GTElement, SimulatedPairingGroup
from repro.groups.params import (
    GQ_PARAM_SETS,
    SCHNORR_PARAM_SETS,
    get_gq_modulus,
    get_schnorr_group,
)
from repro.groups.schnorr import SchnorrGroup
from repro.mathutils.rand import DeterministicRNG


class TestSchnorrGroup:
    def test_named_params_validate(self, small_group):
        small_group.validate(check_primality=True)
        assert small_group.p_bits == 256
        assert small_group.q_bits == 64

    def test_paper_sized_params(self):
        group = get_schnorr_group("ipps2006-1024")
        assert group.p_bits == 1024
        assert group.q_bits == 160
        assert (group.p - 1) % group.q == 0
        assert pow(group.g, group.q, group.p) == 1

    def test_params_are_cached(self):
        assert get_schnorr_group("test-256") is get_schnorr_group("test-256")

    def test_unknown_param_set(self):
        with pytest.raises(ParameterError):
            get_schnorr_group("no-such-set")
        with pytest.raises(ParameterError):
            get_gq_modulus("no-such-set")

    def test_generate_small(self):
        group = SchnorrGroup.generate(p_bits=96, q_bits=32, rng=DeterministicRNG("gen"))
        group.validate()

    def test_validation_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            SchnorrGroup(p=15, q=7, g=2).validate()
        with pytest.raises(ParameterError):
            SchnorrGroup(p=23, q=11, g=1).validate()

    def test_operations(self, small_group):
        g = small_group
        a, b = 12345, 67890
        assert g.mul(a, b) == (a * b) % g.p
        assert g.div(g.mul(a, b), b) == a % g.p
        assert (g.inv(a) * a) % g.p == 1
        assert g.power(g.g, 0) == 1
        assert g.power(g.g, -1) == g.inv(g.g)
        assert g.exp_g(5) == pow(g.g, 5, g.p)

    def test_product(self, small_group):
        values = [3, 5, 7, 11]
        expected = 3 * 5 * 7 * 11 % small_group.p
        assert small_group.product(values) == expected

    def test_subgroup_membership(self, small_group):
        element = small_group.exp_g(987654321 % small_group.q)
        assert small_group.is_subgroup_element(element)
        assert small_group.is_element(element)
        assert not small_group.is_element(0)
        assert not small_group.is_subgroup_element(small_group.p - 1) or pow(
            small_group.p - 1, small_group.q, small_group.p
        ) == 1

    def test_random_exponent_range(self, small_group, rng):
        for _ in range(20):
            r = small_group.random_exponent(rng)
            assert 1 <= r < small_group.q

    def test_describe(self, small_group):
        assert "256" in small_group.describe()

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=25)
    def test_exponent_homomorphism(self, a, b):
        group = get_schnorr_group("test-128")
        a %= group.q
        b %= group.q
        assert group.mul(group.exp_g(a), group.exp_g(b)) == group.exp_g((a + b) % group.q)


class TestEllipticCurves:
    def test_named_curves_valid(self):
        for curve in (SECP160R1, NIST_P192, NIST_P256, TINY_CURVE):
            curve.validate()
            assert curve.generator.multiply(curve.n).is_infinity

    def test_get_curve(self):
        assert get_curve("P-256") is NIST_P256
        with pytest.raises(ParameterError):
            get_curve("P-999")
        assert set(CURVES) >= {"secp160r1", "P-192", "P-256", "tiny-10007"}

    def test_identity_laws(self):
        g = TINY_CURVE.generator
        infinity = TINY_CURVE.infinity
        assert (g + infinity) == g
        assert (infinity + g) == g
        assert g.multiply(0).is_infinity
        assert (g + (-g)).is_infinity

    def test_addition_commutes(self):
        p = TINY_CURVE.generator.multiply(7)
        q = TINY_CURVE.generator.multiply(13)
        assert (p + q) == (q + p)

    def test_scalar_mult_matches_repeated_addition(self):
        g = TINY_CURVE.generator
        accumulated = TINY_CURVE.infinity
        for k in range(1, 25):
            accumulated = accumulated + g
            assert g.multiply(k) == accumulated

    def test_negative_scalar(self):
        g = TINY_CURVE.generator
        assert g.multiply(-5) == g.multiply(5).negate()

    def test_point_validation(self):
        with pytest.raises(ParameterError):
            TINY_CURVE.point(1, 1)
        point = TINY_CURVE.point(TINY_CURVE.gx, TINY_CURVE.gy)
        assert point == TINY_CURVE.generator

    def test_cross_curve_addition_rejected(self):
        with pytest.raises(ParameterError):
            TINY_CURVE.generator.add(NIST_P192.generator)

    def test_singular_curve_rejected(self):
        singular = EllipticCurve("bad", p=10007, a=0, b=0, gx=0, gy=0, n=2, h=1)
        with pytest.raises(ParameterError):
            singular.validate()

    def test_dh_on_p256(self):
        rng = DeterministicRNG("ecdh")
        a = NIST_P256.random_scalar(rng)
        b = NIST_P256.random_scalar(rng)
        shared_1 = NIST_P256.generator.multiply(a).multiply(b)
        shared_2 = NIST_P256.generator.multiply(b).multiply(a)
        assert shared_1 == shared_2

    def test_multi_scalar_matches_sum_of_products(self):
        rng = DeterministicRNG("straus")
        points = [TINY_CURVE.generator.multiply(1 + rng.randbelow(500)) for _ in range(5)]
        scalars = [rng.randbelow(2 * TINY_CURVE.n) - TINY_CURVE.n for _ in range(5)]
        scalars[2] = 0  # zero scalars must be skipped, not crash
        expected = TINY_CURVE.infinity
        for point, scalar in zip(points, scalars):
            expected = expected + point.multiply(scalar)
        assert ec_multi_scalar(points, scalars) == expected

    def test_multi_scalar_rejects_bad_input(self):
        with pytest.raises(ParameterError):
            ec_multi_scalar([], [])
        with pytest.raises(ParameterError):
            ec_multi_scalar([TINY_CURVE.generator], [1, 2])
        with pytest.raises(ParameterError):
            ec_multi_scalar([TINY_CURVE.generator, NIST_P192.generator], [1, 1])

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=30)
    def test_scalar_mult_distributes(self, a, b):
        g = TINY_CURVE.generator
        assert g.multiply(a) + g.multiply(b) == g.multiply((a + b))

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=30)
    def test_order_annihilates(self, k):
        g = TINY_CURVE.generator
        assert g.multiply(k * TINY_CURVE.n).is_infinity


class TestSimulatedPairing:
    @pytest.fixture()
    def pairing(self, small_group):
        return SimulatedPairingGroup(small_group)

    def test_bilinearity(self, pairing, rng):
        p = pairing.generator
        a = rng.zq_star(pairing.order)
        b = rng.zq_star(pairing.order)
        left = pairing.pairing(p.scalar_mul(a), p.scalar_mul(b))
        right = pairing.pairing(p, p).power(a * b % pairing.order)
        assert left == right

    def test_non_degenerate(self, pairing):
        result = pairing.pairing(pairing.generator, pairing.generator)
        assert result.value != 1

    def test_gt_generator_consistency(self, pairing):
        assert pairing.pairing(pairing.generator, pairing.generator) == pairing.gt_generator()

    def test_g1_group_laws(self, pairing, rng):
        a = pairing.random_element(rng)
        b = pairing.random_element(rng)
        assert (a + b).exponent == (a.exponent + b.exponent) % pairing.order
        assert (3 * a).exponent == (3 * a.exponent) % pairing.order
        assert G1Element(0, pairing.order).is_identity
        assert a.wire_bits == 194

    def test_gt_group_laws(self, pairing):
        gt = pairing.gt_generator()
        assert (gt * gt) == gt.power(2)

    def test_map_to_point_in_range(self, pairing):
        for identity in (b"a", b"b", b"carol"):
            point = pairing.map_to_point(identity)
            assert 1 <= point.exponent < pairing.order

    def test_mixed_group_operations_rejected(self, pairing, small_group):
        other = G1Element(1, pairing.order + 2)
        with pytest.raises(ParameterError):
            pairing.generator.add(other)
        with pytest.raises(ParameterError):
            pairing.pairing(pairing.generator, other)
        with pytest.raises(ParameterError):
            GTElement(2, 7).mul(GTElement(2, 11))
