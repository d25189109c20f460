"""Orbit classes, index formulas, and the derived numeric invariants."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsembed import (
    DegreeTuple,
    FormalCurveSpec,
    InadmissibleOrbit,
    InconsistentHomology,
    LengthMismatch,
    OrbitClass,
    curve_index,
    cz_index,
    cz_index_anticanonical,
    f_invariant,
    fredholm_index,
    gw_anchor,
    orbit_spectrum,
)

from oracles import smallest_multiplier


class TestWrapping:
    def test_action_is_pairing_against_wrapping(self):
        # the loop around the degree-d_i component wraps -d_i times
        d = DegreeTuple((4, 2, 1))
        for v in [(1, 0, 0), (0, 2, 1), (1, 1, 1)]:
            oc = OrbitClass(3, d, v, delta=0)
            assert oc.action == sum(e * c for e, c in zip(d, v))


class TestCzIndex:
    def test_simple_orbit_anchor(self):
        # one simple cover of a single component at top Morse index
        for n in range(1, 7):
            v = (1,) + (0,) * (n - 1) if n > 1 else (1,)
            assert cz_index(n, v, 0) == n - 3

    def test_two_dim_families(self):
        # complex dimension 2: indices 1 - 2*sum(v) and -2*sum(v)
        for v in [(1,), (2,), (1, 1), (3,), (2, 1)]:
            total = sum(v)
            assert cz_index(2, v, 0) == 1 - 2 * total
            assert cz_index(2, v, 1) == -2 * total

    def test_morse_shift_identity(self):
        # raising the Morse index by one lowers the index by one
        assert cz_index(4, (2, 1), 0) - cz_index(4, (2, 1), 3) == 3

    def test_rejects_bad_morse_index(self):
        with pytest.raises(InadmissibleOrbit):
            cz_index(2, (1,), -1)
        with pytest.raises(InadmissibleOrbit):
            # support 1 in dimension 2: Morse index can be at most 2n-r-1 = 2
            cz_index(2, (1,), 3)

    def test_rejects_oversupported_orbit(self):
        with pytest.raises(InadmissibleOrbit):
            cz_index(2, (1, 1, 1), 0)

    def test_rejects_zero_vector(self):
        with pytest.raises(InadmissibleOrbit):
            cz_index(2, (0, 0), 0)


class TestCzAnticanonical:
    def test_zero_orders_match_plain_index(self):
        for v in [(1,), (2, 1)]:
            assert cz_index_anticanonical(3, v, 1, (0,) * len(v)) == cz_index(3, v, 1)

    def test_frozen_example(self):
        # n=2, single cover with vanishing order 1: 1 - 0 - 2*(1*2) = -3
        assert cz_index_anticanonical(2, (1,), 0, (1,)) == -3

    def test_negative_orders_raise_index(self):
        base = cz_index_anticanonical(3, (1, 1), 0, (0, 0))
        assert cz_index_anticanonical(3, (1, 1), 0, (-1, -1)) == base + 4

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            cz_index_anticanonical(2, (1,), 0, (1, 2))


class TestOrbitClassAndSpectrum:
    def test_frozen_nine_classes(self):
        classes = orbit_spectrum(2, (1, 1, 1), 1)
        assert len(classes) == 9
        assert [(oc.v, oc.delta) for oc in classes] == [
            ((0, 0, 1), -1),
            ((0, 0, 1), 0),
            ((0, 0, 1), 1),
            ((0, 1, 0), -1),
            ((0, 1, 0), 0),
            ((0, 1, 0), 1),
            ((1, 0, 0), -1),
            ((1, 0, 0), 0),
            ((1, 0, 0), 1),
        ]
        assert all(oc.cz == oc.delta - 2 for oc in classes)

    def test_empty_below_min_degree(self):
        assert orbit_spectrum(2, (3, 2), 1) == []

    def test_actions_respect_cap_and_order(self):
        classes = orbit_spectrum(2, (2, 1), 4)
        assert all(oc.action <= 4 for oc in classes)
        keys = [(oc.action, oc.v, oc.delta) for oc in classes]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "n, v, error",
        [
            (2, (1,), LengthMismatch),  # one entry per component
            (2, (2, -1), InadmissibleOrbit),
            (2, (0, 0), InadmissibleOrbit),
            (1, (1, 1), InadmissibleOrbit),  # meets more than n components
            (0, (1, 0), ValueError),
        ],
    )
    def test_orbit_class_rejects_bad_wrapping(self, n, v, error):
        with pytest.raises(error):
            OrbitClass(n, DegreeTuple((2, 1)), v, delta=0)

    def test_delta_range_enforced(self):
        with pytest.raises(InadmissibleOrbit):
            OrbitClass(2, DegreeTuple((1, 1)), (1, 1), delta=2)
        with pytest.raises(InadmissibleOrbit):
            OrbitClass(2, DegreeTuple((1, 1)), (1, 1), delta=-1)
        # support 1 in dimension 2 allows delta in [-1, 1]
        OrbitClass(2, DegreeTuple((1, 1)), (1, 0), delta=-1)

    def test_homology_class_attached(self):
        oc = orbit_spectrum(2, (2, 1), 2)[0]
        assert oc.homology.modulus == (2, 1)

    @given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=5))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_counts_grow_with_cap(self, n, cap):
        d = (2, 1)
        smaller = orbit_spectrum(n, d, cap)
        larger = orbit_spectrum(n, d, cap + 1)
        assert len(smaller) <= len(larger)
        assert smaller == larger[: len(smaller)]


class TestCurveIndex:
    def test_fredholm_closed_form(self):
        # two positive ends, one negative end, explicit CZ values
        got = fredholm_index(3, (2, 0), (1,), chern_term=4)
        # (n-3)(2-s) + sum(cz+) - sum(cz-) + 2 c1 with n=3: 0 + 2 - 1 + 8
        assert got == 9

    def test_tangency_cut(self):
        free = fredholm_index(2, (1,))
        cut = fredholm_index(2, (1,), tangency_order=1)
        assert free - cut == 2 * 2 + 2 * 1 - 2

    def test_curve_index_identity_case(self):
        d = DegreeTuple((1, 1, 1))
        ends = tuple(
            OrbitClass(2, d, v, delta=1)
            for v in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        spec = FormalCurveSpec(2, d, ends, q=1)
        # three top-delta simple ends, q=1, no tangency
        assert curve_index(spec) == (2 - 3) * (2 - 3) + sum(e.cz for e in ends) + 2 * 3

    def test_inferred_q(self):
        d = DegreeTuple((2, 1))
        ends = (OrbitClass(2, d, (2, 1), delta=1),)
        spec = FormalCurveSpec.with_inferred_q(2, d, ends)
        assert spec.q == 1

    def test_inconsistent_homology(self):
        d = DegreeTuple((2, 1))
        ends = (OrbitClass(2, d, (1, 1), delta=1),)
        with pytest.raises(InconsistentHomology):
            FormalCurveSpec(2, d, ends, q=1)

    def test_rejects_anchored_without_q(self):
        d = DegreeTuple((2, 1))
        ends = (OrbitClass(2, d, (1, 0), delta=1),)
        with pytest.raises(InconsistentHomology):
            FormalCurveSpec.with_inferred_q(2, d, ends)


class TestNumericInvariants:
    def test_frozen_values(self):
        assert f_invariant(2, (3,)) == 1
        assert f_invariant(2, (4, 2)) == 2

    def test_matches_scan_oracle(self):
        for n in range(1, 5):
            for d in [(2,), (3,), (4, 2), (6, 3), (5, 10), (7,), (9, 6, 3)]:
                assert f_invariant(n, d) == smallest_multiplier(d, n)

    def test_divisibility_monotone(self):
        # if gcd(d) divides gcd(d'), the invariant divides as well
        for n in range(1, 5):
            for g1, g2 in itertools.product(range(1, 13), repeat=2):
                if g2 % g1 == 0:
                    assert f_invariant(n, (g2,)) % f_invariant(n, (g1,)) == 0

    def test_gw_anchor(self):
        for n in range(1, 9):
            assert gw_anchor(n) == math.factorial(n - 1)


class TestRejectsBools:
    """Every integer argument check rejects True, which isinstance counts as an int."""

    @pytest.mark.parametrize(
        "call, error, message",
        [
            (lambda: cz_index(True, (1,), 0), ValueError, "complex dimension"),
            (lambda: cz_index(2, (1,), True), InadmissibleOrbit, "Morse index"),
            (lambda: OrbitClass(2, (2, 1), (1, 0), delta=True), InadmissibleOrbit, "delta"),
            (lambda: orbit_spectrum(True, (2, 1), 3), ValueError, "complex dimension"),
            (lambda: orbit_spectrum(2, (2, 1), True), ValueError, "action cap"),
            (lambda: FormalCurveSpec(2, (1,), (), True), ValueError, "capping degree"),
            (lambda: FormalCurveSpec(2, (1,), (), 0, True), ValueError, "tangency order"),
            (lambda: fredholm_index(2, [], tangency_order=True), ValueError, "tangency order"),
            (lambda: f_invariant(True, (2, 1)), ValueError, "complex dimension"),
            (lambda: gw_anchor(True), ValueError, "complex dimension"),
        ],
        ids=[
            "cz_index-n", "cz_index-morse_index", "OrbitClass-delta",
            "orbit_spectrum-n", "orbit_spectrum-action_cap", "FormalCurveSpec-q",
            "FormalCurveSpec-tangency_order", "fredholm_index-tangency_order",
            "f_invariant-n", "gw_anchor-n",
        ],
    )
    def test_true_is_not_an_integer(self, call, error, message):
        with pytest.raises(error, match=message):
            call()
