"""Worker-pool scheduler: occupancy, dependencies, statistics."""

import pytest

from repro.amt.engine import Engine
from repro.amt.future import when_all
from repro.amt.scheduler import WorkerPool
from repro.amt.task import Task, TaskState


def make_pool(workers: int = 2):
    engine = Engine()
    return engine, WorkerPool(engine, workers)


def submit_fn(pool, fn, *args, **task_options):
    """Queue ``fn(*args)`` as one ready task."""
    return pool.submit(Task(fn, args, **task_options))


class TestExecution:
    def test_task_runs_and_resolves(self):
        engine, pool = make_pool()
        future = submit_fn(pool, lambda a, b: a + b, 2, 3, cost=1.0)
        engine.run()
        assert future.get() == 5
        assert engine.now == 1.0

    def test_worker_occupancy_serialises(self):
        # 4 unit-cost tasks on 2 workers take 2 virtual seconds.
        engine, pool = make_pool(2)
        for _ in range(4):
            submit_fn(pool, None, cost=1.0)
        engine.run()
        assert engine.now == pytest.approx(2.0)
        assert pool.tasks_completed == 4

    def test_single_worker_fifo(self):
        engine, pool = make_pool(1)
        order = []
        for i in range(5):
            submit_fn(pool, lambda i=i: order.append(i), cost=0.1)
        engine.run()
        assert order == list(range(5))

    def test_callable_cost(self):
        engine, pool = make_pool(1)
        submit_fn(pool, None, cost=lambda: 2.5)
        engine.run()
        assert engine.now == pytest.approx(2.5)

    def test_negative_cost_rejected(self):
        engine, pool = make_pool(1)
        # Dispatch is eager when a worker is idle, so the cost validation
        # fires at submission time.
        with pytest.raises(ValueError):
            submit_fn(pool, None, cost=-1.0)
            engine.run()

    def test_failing_task_sets_exception(self):
        engine, pool = make_pool(1)

        def boom():
            raise RuntimeError("kernel crashed")

        future = submit_fn(pool, boom, cost=1.0)
        engine.run()
        assert future.has_exception()
        assert pool.tasks_failed == 1


class TestDependencies:
    def test_submit_after_waits(self):
        engine, pool = make_pool(2)
        first = submit_fn(pool, lambda: "a", cost=2.0)
        second = pool.submit_after([first], Task(lambda: "b", cost=1.0))
        engine.run()
        assert second.get() == "b"
        assert engine.now == pytest.approx(3.0)

    def test_submit_after_multiple(self):
        engine, pool = make_pool(4)
        deps = [submit_fn(pool, None, cost=c) for c in (1.0, 3.0, 2.0)]
        done = pool.submit_after(deps, Task(None, cost=0.5))
        engine.run()
        assert done.is_ready()
        assert engine.now == pytest.approx(3.5)

    def test_dependency_failure_cancels(self):
        engine, pool = make_pool(2)

        def boom():
            raise ValueError("dep failed")

        bad = submit_fn(pool, boom, cost=1.0)
        ran = []
        dependent = pool.submit_after([bad], Task(lambda: ran.append(1), cost=1.0))
        engine.run()
        assert dependent.has_exception()
        assert ran == []

    def test_empty_deps_run_immediately(self):
        engine, pool = make_pool(1)
        future = pool.submit_after([], Task(lambda: 7, cost=1.0))
        engine.run()
        assert future.get() == 7


class TestStatistics:
    def test_utilization_full(self):
        engine, pool = make_pool(2)
        for _ in range(4):
            submit_fn(pool, None, cost=1.0)
        engine.run()
        assert pool.utilization() == pytest.approx(1.0)

    def test_utilization_half(self):
        engine, pool = make_pool(2)
        submit_fn(pool, None, cost=2.0)  # one worker idle throughout
        engine.run()
        assert pool.utilization() == pytest.approx(0.5)

    def test_kind_accounting(self):
        engine, pool = make_pool(2)
        submit_fn(pool, None, cost=1.0, kind="hydro")
        submit_fn(pool, None, cost=2.0, kind="hydro")
        submit_fn(pool, None, cost=0.5, kind="fmm")
        engine.run()
        assert pool.kind_counts == {"hydro": 2, "fmm": 1}
        assert pool.kind_time["hydro"] == pytest.approx(3.0)

    def test_starvation_recorded_when_workers_idle(self):
        engine, pool = make_pool(4)
        submit_fn(pool, None, cost=1.0)
        engine.run()
        assert pool.starvation_events() > 0

    def test_workers_validation(self):
        with pytest.raises(ValueError):
            WorkerPool(Engine(), 0)


class TestShardedSubmission:
    def test_sharded_work_shrinks_makespan(self):
        # One cost-4 unit of work on 4 workers: unsplit occupies one worker
        # for 4 virtual seconds; split over 4 shards it finishes in 1.
        engine, pool = make_pool(4)
        pool.submit_sharded([], None, cost=4.0, shards=4)
        engine.run()
        assert engine.now == pytest.approx(1.0)

    def test_unsharded_is_plain_submission(self):
        engine, pool = make_pool(4)
        pool.submit_sharded([], None, cost=4.0, shards=1)
        engine.run()
        assert engine.now == pytest.approx(4.0)
        assert pool.tasks_completed == 1

    def test_payload_runs_exactly_once(self):
        engine, pool = make_pool(4)
        calls = []
        future = pool.submit_sharded([], lambda: calls.append(1), cost=2.0, shards=4)
        engine.run()
        assert calls == [1]
        assert future.is_ready()
        assert pool.tasks_completed == 4

    def test_sharded_respects_dependencies(self):
        engine, pool = make_pool(4)
        order = []
        first = submit_fn(pool, lambda: order.append("dep"), cost=1.0)
        done = pool.submit_sharded(
            [first], lambda: order.append("payload"), cost=2.0, shards=2
        )
        engine.run()
        assert order == ["dep", "payload"]
        assert done.is_ready()
        # shards start only after the dep: 1.0 + 2.0/2
        assert engine.now == pytest.approx(2.0)

    def test_sharded_kind_accounting(self):
        engine, pool = make_pool(4)
        pool.submit_sharded([], None, cost=4.0, shards=4, kind="ghost.pack")
        engine.run()
        assert pool.kind_counts["ghost.pack"] == 4
        assert pool.kind_time["ghost.pack"] == pytest.approx(4.0)

    def test_invalid_shards_rejected(self):
        engine, pool = make_pool(2)
        with pytest.raises(ValueError):
            pool.submit_sharded([], None, cost=1.0, shards=0)
