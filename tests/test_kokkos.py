"""Kokkos analog: views, policies, execution spaces, parallel dispatch."""

import numpy as np
import pytest

from repro.amt.future import when_all
from repro.amt.locality import Runtime
from repro.kokkos import (
    DeviceSpace,
    DeviceSpaceTag,
    HostSpace,
    HpxSpace,
    MDRangePolicy,
    RangePolicy,
    SerialSpace,
    View,
    deep_copy,
    parallel_for,
    parallel_for_async,
)
from repro.kokkos.view import transfer_counter

from tests.conftest import reset_transfer_counter


class TestView:
    def test_construction(self):
        v = View("rho", (4, 4))
        assert v.shape == (4, 4)
        assert v.space is HostSpace
        assert (v.data == 0).all()

    def test_from_array_shares_storage(self):
        arr = np.arange(6.0)
        v = View.from_array("x", arr)
        v[0] = 99.0
        assert arr[0] == 99.0

    def test_indexing(self):
        v = View("x", (3,))
        v[1] = 5.0
        assert v[1] == 5.0

    def test_mirror(self):
        v = View("x", (2, 2), space=DeviceSpaceTag)
        m = v.mirror(HostSpace)
        assert m.space is HostSpace
        assert m.shape == v.shape

    def test_deep_copy_and_accounting(self):
        reset_transfer_counter()
        host = View("h", (8,))
        host.data[:] = 3.0
        dev = View("d", (8,), space=DeviceSpaceTag)
        deep_copy(dev, host)
        assert (dev.data == 3.0).all()
        assert transfer_counter["h2d_bytes"] == 64

    def test_deep_copy_shape_mismatch(self):
        with pytest.raises(ValueError):
            deep_copy(View("a", (2,)), View("b", (3,)))


class TestPolicies:
    def test_range_size(self):
        assert RangePolicy(3, 10).size == 7
        assert RangePolicy(3, 10, work_per_item=2.0).total_work == 14.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            RangePolicy(5, 2)

    def test_chunks_balanced(self):
        chunks = RangePolicy(0, 10).chunks(3)
        assert chunks == [(0, 4), (4, 7), (7, 10)]
        assert sum(e - b for b, e in chunks) == 10

    def test_chunks_more_than_items(self):
        assert len(RangePolicy(0, 3).chunks(8)) == 3

    def test_chunks_empty_range(self):
        assert RangePolicy(5, 5).chunks(4) == []

    def test_chunks_invalid(self):
        with pytest.raises(ValueError):
            RangePolicy(0, 4).chunks(0)

    def test_mdrange_flatten(self):
        policy = MDRangePolicy((2, 3, 4), work_per_item=7.0)
        flat = policy.flatten()
        assert flat.size == 24
        assert flat.work_per_item == 7.0

    def test_mdrange_negative_extent(self):
        with pytest.raises(ValueError):
            MDRangePolicy((2, -1))


class TestSerialSpace:
    def test_runs_inline(self):
        space = SerialSpace()
        data = np.zeros(10)

        def body(b, e):
            data[b:e] = 1.0

        parallel_for(space, RangePolicy(0, 10), body)
        assert (data == 1.0).all()
        assert space.stats.launches == 1

    def test_simd_lowers_cost(self):
        scalar = SerialSpace(simd_abi="scalar")
        sve = SerialSpace(simd_abi="sve512")
        policy = RangePolicy(0, 100, work_per_item=100.0)
        assert sve.item_cost(policy) < scalar.item_cost(policy)

    def test_non_vectorizable_ignores_simd(self):
        sve = SerialSpace(simd_abi="sve512")
        policy = RangePolicy(0, 10, vectorizable=False)
        scalar_policy = RangePolicy(0, 10, vectorizable=True)
        assert sve.item_cost(policy) > sve.item_cost(scalar_policy)


class TestHpxSpace:
    def make(self, tasks_per_kernel=4, workers=4):
        rt = Runtime(1, workers)
        return rt, HpxSpace(rt.here(), tasks_per_kernel=tasks_per_kernel)

    def test_functional_result(self):
        rt, space = self.make()
        data = np.zeros(100)

        def body(b, e):
            data[b:e] = np.arange(b, e)

        parallel_for(space, RangePolicy(0, 100), body)
        np.testing.assert_array_equal(data, np.arange(100))

    def test_task_splitting_counts(self):
        rt, space = self.make(tasks_per_kernel=4)
        parallel_for(space, RangePolicy(0, 100), lambda b, e: None)
        assert space.stats.launches == 1
        assert space.stats.tasks == 4

    def test_splitting_reduces_makespan(self):
        """Fig. 9's mechanism: K tasks on K workers beat one task."""
        rt1, one = self.make(tasks_per_kernel=1, workers=4)
        parallel_for(one, RangePolicy(0, 64, work_per_item=1e6), lambda b, e: None)
        t_one = rt1.engine.now

        rt4, four = self.make(tasks_per_kernel=4, workers=4)
        parallel_for(four, RangePolicy(0, 64, work_per_item=1e6), lambda b, e: None)
        assert rt4.engine.now == pytest.approx(t_one / 4.0)

    def test_empty_policy(self):
        rt, space = self.make()
        future = parallel_for_async(space, RangePolicy(0, 0), lambda b, e: None)
        assert future.is_ready()

    def test_invalid_tasks_per_kernel(self):
        rt = Runtime(1, 2)
        with pytest.raises(ValueError):
            HpxSpace(rt.here(), tasks_per_kernel=0)

    def test_async_returns_future(self):
        rt, space = self.make()
        hits = []
        future = parallel_for_async(
            space, RangePolicy(0, 8), lambda b, e: hits.append((b, e))
        )
        assert not future.is_ready()
        rt.run_until_ready(future)
        assert sum(e - b for b, e in hits) == 8


class TestDeviceSpace:
    def test_aggregation_batches_launches(self):
        rt = Runtime(1, 2)
        dev = DeviceSpace(rt.here(), aggregation_size=4)
        futures = [
            parallel_for_async(dev, RangePolicy(0, 8, work_per_item=1e3), lambda b, e: None, kind="k")
            for _ in range(8)
        ]
        rt.run_until_ready(when_all(futures))
        assert dev.stats.launches == 2  # 8 kernels fused into 2 device launches
        assert dev.stats.items == 64

    def test_unbatched_flushes_via_engine(self):
        rt = Runtime(1, 2)
        dev = DeviceSpace(rt.here(), aggregation_size=16)
        future = parallel_for_async(dev, RangePolicy(0, 8), lambda b, e: None)
        rt.run_until_ready(future)
        assert dev.stats.launches == 1

    def test_launch_latency_dominates_small_kernels(self):
        rt = Runtime(1, 2)
        dev = DeviceSpace(rt.here(), launch_latency_s=1.0, flops_per_second=1e15)
        future = parallel_for_async(dev, RangePolicy(0, 4, work_per_item=1.0), lambda b, e: None)
        rt.run_until_ready(future)
        assert rt.engine.now >= 1.0

    def test_streams_parallelise_launches(self):
        def run(n_streams):
            rt = Runtime(1, 2)
            dev = DeviceSpace(
                rt.here(), n_streams=n_streams, launch_latency_s=0.0,
                flops_per_second=1e6, aggregation_size=1,
            )
            futures = [
                parallel_for_async(dev, RangePolicy(0, 10, work_per_item=1e5), lambda b, e: None)
                for _ in range(4)
            ]
            rt.run_until_ready(when_all(futures))
            return rt.engine.now

        assert run(4) < run(1)

    def test_invalid_aggregation(self):
        rt = Runtime(1, 1)
        with pytest.raises(ValueError):
            DeviceSpace(rt.here(), aggregation_size=0)

    def test_functor_executes_with_results(self):
        rt = Runtime(1, 1)
        dev = DeviceSpace(rt.here())
        data = np.zeros(16)

        def body(b, e):
            data[b:e] += 2.0

        rt.run_until_ready(parallel_for_async(dev, RangePolicy(0, 16), body))
        assert (data == 2.0).all()


# -- array backends ----------------------------------------------------------

from repro.analysis.spacesan import sanitizer_mode  # noqa: E402
from repro.kokkos import (  # noqa: E402
    ExecutionSpace,
    get_backend,
    sanctioned_crossing,
)
from repro.kokkos.backend import _REGISTRY  # noqa: E402
from repro.kokkos.view import _DeviceArray  # noqa: E402

#: Every registered backend.
ALL_BACKENDS = sorted(_REGISTRY)


class TestBackendRegistry:
    def test_always_available(self):
        assert get_backend("numpy").module is np

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            get_backend("fortran")

    def test_space_backend_routing(self):
        numpy_backend = get_backend("numpy")
        host = View("h", (2,), space=HostSpace)
        device = View("d", (2,), space=DeviceSpaceTag)
        assert host.backend is numpy_backend
        assert device.backend is numpy_backend
        assert not isinstance(host._data, _DeviceArray)
        assert isinstance(device._data, _DeviceArray)
        assert View.from_array("a", np.zeros(2), DeviceSpaceTag).backend is (
            numpy_backend
        )

    def test_registry_members_are_gone(self):
        import repro.kokkos as kokkos
        from repro.kokkos import backend as backend_module

        for name in (
            "BackendUnavailable", "available_backends", "register_backend",
            "set_space_backend", "space_backend_map", "backend_for_space",
        ):
            assert not hasattr(kokkos, name), name
        for name in ("PyJitBackend", "NumbaBackend", "NumpyBackend"):
            assert not hasattr(backend_module, name), name
        assert not hasattr(ExecutionSpace, "array_backend")


@pytest.mark.parametrize("name", ALL_BACKENDS)
class TestBackendStorage:
    def test_zeros_roundtrip(self, name):
        b = get_backend(name)
        arr = b.zeros((3, 2))
        host = b.to_numpy(arr)
        assert host.shape == (3, 2) and (host == 0).all()

    def test_from_numpy_roundtrip(self, name):
        b = get_backend(name)
        src = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(b.to_numpy(b.from_numpy(src)), src)

    def test_view_owns_backend_storage(self, name):
        v = View("x", (4,), backend=get_backend(name))
        assert v.backend.name == name
        assert v.xp is get_backend(name).module

    def test_deep_copy_from_numpy_view(self, name):
        reset_transfer_counter()
        src = View("src", (5,))
        src.data[:] = 7.0
        dst = View("dst", (5,), backend=get_backend(name))
        deep_copy(dst, src)
        assert (get_backend(name).to_numpy(dst._data) == 7.0).all()
        assert transfer_counter["copies"] == 1

    def test_deep_copy_to_numpy_view(self, name):
        b = get_backend(name)
        src = View("src", (4,), backend=b)
        with sanctioned_crossing():
            b.copy_into(src._data, np.full(4, 2.5))
        dst = View("dst", (4,))
        deep_copy(dst, src)
        assert (dst.data == 2.5).all()


class TestMirror:
    def test_mirror_label_does_not_accumulate(self):
        v = View("x", (2, 2), space=DeviceSpaceTag)
        m1 = v.mirror(HostSpace)
        m2 = m1.mirror(DeviceSpaceTag)
        assert m1.label == "x_mirror"
        assert m2.label == "x_mirror"  # not "x_mirror_mirror"

    def test_mirror_preserves_dtype(self):
        v = View("x", (3,), dtype=np.float32)
        m = v.mirror(DeviceSpaceTag)
        assert m.dtype == np.float32

    def test_mirror_zero_fills_by_default(self):
        v = View("x", (4,))
        v.data[:] = 9.0
        assert (v.mirror(DeviceSpaceTag)._data == 0.0).all()

    def test_mirror_copy_transfers(self):
        reset_transfer_counter()
        v = View("x", (4,))
        v.data[:] = 9.0
        m = v.mirror(DeviceSpaceTag, copy=True)
        assert (np.asarray(m._data) == 9.0).all()
        assert transfer_counter["h2d_bytes"] == 32


class TestDeepCopyDtype:
    def test_dtype_mismatch_raises(self):
        dst = View("a", (4,), dtype=np.float32)
        src = View("b", (4,), dtype=np.float64)
        with pytest.raises(ValueError, match="dtype mismatch"):
            deep_copy(dst, src)

    def test_same_dtype_passes(self):
        dst = View("a", (4,), dtype=np.float32)
        src = View("b", (4,), dtype=np.float32)
        deep_copy(dst, src)  # no raise


class TestSpaceSanitizer:
    def test_raw_data_grab_reported(self):
        v = View("dev", (4,), space=DeviceSpaceTag)
        with sanitizer_mode(collect=True) as findings:
            _ = v.data
        assert any(f.op == "raw-data" for f in findings)

    def test_cross_backend_ufunc_reported(self):
        v = View("dev", (4,), space=DeviceSpaceTag)
        leaked = v._data  # smuggled storage, no .data report
        with sanitizer_mode(collect=True) as findings:
            np.sqrt(leaked)
        assert any(
            f.op == "ufunc" and f.label == "dev" for f in findings
        )

    def test_grab_then_ufunc_reports_both(self):
        v = View("dev", (4,), space=DeviceSpaceTag)
        with sanitizer_mode(collect=True) as findings:
            np.abs(v.data)
        assert {f.op for f in findings} >= {"raw-data", "ufunc"}

    def test_sanctioned_crossing_suppresses_ufunc(self):
        v = View("dev", (4,), space=DeviceSpaceTag)
        leaked = v._data
        with sanitizer_mode(collect=True) as findings:
            with sanctioned_crossing():
                np.sqrt(leaked)
        assert not [f for f in findings if f.op == "ufunc"]

    def test_host_view_never_reports(self):
        v = View("host", (4,))
        with sanitizer_mode(collect=True) as findings:
            np.sqrt(v.data)
        assert findings == []
