"""SIMD abstraction: ABIs, packs, kernel drivers — unit and property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simd import (
    Pack,
    get_abi,
    vector_map,
)
from repro.simd.abi import SimdAbi

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestAbi:
    def test_registry_contents(self):
        for expected in ("scalar", "neon128", "avx2", "avx512", "sve512"):
            assert get_abi(expected).name == expected

    def test_unknown_abi(self):
        with pytest.raises(KeyError):
            get_abi("sve1024")

    def test_lanes(self):
        assert get_abi("scalar").lanes() == 1
        assert get_abi("sve512").lanes() == 8
        assert get_abi("avx2").lanes() == 4
        assert get_abi("sve512").lanes(np.dtype(np.float32)) == 16

    def test_dtype_too_wide(self):
        tiny = SimdAbi("tiny", 32)
        with pytest.raises(ValueError):
            tiny.lanes(np.dtype(np.float64))

    def test_scalar_speedup_is_one(self):
        assert get_abi("scalar").speedup_factor() == 1.0

    def test_sve_speedup_in_paper_window(self):
        # Paper SVII-A: "a speed-up between a factor of two and three".
        assert 2.0 <= get_abi("sve512").speedup_factor() <= 3.0

    def test_duplicate_registration_rejected(self):
        from repro.simd.abi import register_abi

        with pytest.raises(ValueError):
            register_abi(SimdAbi("scalar", 0))


class TestPack:
    def test_broadcast(self):
        p = Pack.broadcast(get_abi("sve512"), 3.5)
        assert p.lanes == 8
        assert (p.values == 3.5).all()

    def test_wrong_lane_count(self):
        with pytest.raises(ValueError):
            Pack(get_abi("sve512"), np.zeros(5))

    def test_load_store_round_trip(self):
        abi = get_abi("avx2")
        buf = np.arange(8.0)
        p = Pack.load(abi, buf, offset=2)
        out = np.zeros(8)
        p.store(out, offset=4)
        assert (out[4:8] == buf[2:6]).all()

    def test_load_overrun(self):
        with pytest.raises(ValueError):
            Pack.load(get_abi("sve512"), np.zeros(4))

    def test_store_overrun(self):
        p = Pack.broadcast(get_abi("sve512"), 1.0)
        with pytest.raises(ValueError):
            p.store(np.zeros(4))

    @given(st.lists(finite, min_size=8, max_size=8), st.lists(finite, min_size=8, max_size=8))
    @settings(max_examples=50)
    def test_arithmetic_matches_numpy(self, a, b):
        abi = get_abi("sve512")
        pa, pb = Pack(abi, a), Pack(abi, b)
        np.testing.assert_allclose((pa + pb).values, np.add(a, b))
        np.testing.assert_allclose((pa - pb).values, np.subtract(a, b))
        np.testing.assert_allclose((pa * pb).values, np.multiply(a, b))

    def test_division_and_reverse_ops(self):
        abi = get_abi("avx2")
        p = Pack(abi, [1.0, 2.0, 4.0, 8.0])
        np.testing.assert_allclose((1.0 / p).values, [1.0, 0.5, 0.25, 0.125])
        np.testing.assert_allclose((10.0 - p).values, [9.0, 8.0, 6.0, 2.0])
        np.testing.assert_allclose((p / 2.0).values, [0.5, 1.0, 2.0, 4.0])

    def test_fma(self):
        abi = get_abi("avx2")
        a = Pack(abi, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(a.fma(2.0, 1.0).values, [3.0, 5.0, 7.0, 9.0])

    def test_sqrt_rsqrt(self):
        abi = get_abi("avx2")
        p = Pack(abi, [1.0, 4.0, 9.0, 16.0])
        np.testing.assert_allclose(p.sqrt().values, [1, 2, 3, 4])
        np.testing.assert_allclose(p.rsqrt().values, [1, 0.5, 1 / 3, 0.25])

    def test_min_max_abs_neg(self):
        abi = get_abi("avx2")
        p = Pack(abi, [-1.0, 2.0, -3.0, 4.0])
        np.testing.assert_allclose(abs(p).values, [1, 2, 3, 4])
        np.testing.assert_allclose((-p).values, [1, -2, 3, -4])
        np.testing.assert_allclose(p.min(0.0).values, [-1, 0, -3, 0])
        np.testing.assert_allclose(p.max(0.0).values, [0, 2, 0, 4])

    def test_horizontal_reductions(self):
        p = Pack(get_abi("avx2"), [1.0, 2.0, 3.0, 4.0])
        assert p.hsum() == 10.0
        assert p.hmin() == 1.0
        assert p.hmax() == 4.0

    def test_mixed_abi_rejected(self):
        a = Pack(get_abi("avx2"), np.zeros(4))
        b = Pack(get_abi("sve512"), np.zeros(8))
        with pytest.raises((TypeError, ValueError)):
            a + b


class TestMaskSelect:
    def test_comparisons(self):
        abi = get_abi("avx2")
        p = Pack(abi, [1.0, 2.0, 3.0, 4.0])
        m = p > 2.0
        assert m.count() == 2
        assert (p <= 2.0).count() == 2
        assert p.eq(3.0).count() == 1

    def test_mask_logic(self):
        abi = get_abi("avx2")
        p = Pack(abi, [1.0, 2.0, 3.0, 4.0])
        m = (p > 1.0) & (p < 4.0)
        assert m.count() == 2
        assert (~m).count() == 2
        assert (m | ~m).all()
        assert not (m & ~m).any()
        assert (m & ~m).none()

class TestVectorMap:
    @pytest.mark.parametrize("abi_name", ["scalar", "neon128", "avx2", "sve512"])
    @pytest.mark.parametrize("n", [1, 7, 8, 16, 33])
    def test_square_kernel_all_abis_all_tails(self, abi_name, n):
        abi = get_abi(abi_name)
        a = np.linspace(-3, 3, n)
        out = np.zeros(n)
        vector_map(lambda p: p * p, abi, out, a)
        np.testing.assert_allclose(out, a * a)

    def test_two_input_kernel(self):
        abi = get_abi("sve512")
        a, b = np.arange(20.0), np.arange(20.0) * 2
        out = np.zeros(20)
        vector_map(lambda x, y: x.fma(2.0, y), abi, out, a, b)
        np.testing.assert_allclose(out, 2 * a + b)

    def test_shape_mismatch(self):
        abi = get_abi("avx2")
        with pytest.raises(ValueError):
            vector_map(lambda p: p, abi, np.zeros(4), np.zeros(5))

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            vector_map(lambda p: p, get_abi("avx2"), np.zeros((2, 2)), np.zeros((2, 2)))

    @given(st.lists(finite, min_size=1, max_size=40))
    @settings(max_examples=30)
    def test_abi_equivalence_property(self, values):
        """The same kernel yields identical results under every ABI."""
        a = np.array(values)
        results = []
        for abi_name in ("scalar", "sve512"):
            out = np.zeros_like(a)
            vector_map(lambda p: p * 2.0 + 1.0, get_abi(abi_name), out, a)
            results.append(out)
        np.testing.assert_array_equal(results[0], results[1])
