"""The SIMD ABI registry: lanes and the modelled speedup factors."""

import numpy as np
import pytest

from repro.simd import get_abi
from repro.simd.abi import SimdAbi


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
