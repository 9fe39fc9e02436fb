"""Tests for workflow enactment on the discrete-event engine."""

import pytest

from repro.core.mapping.roundrobin import RoundRobinMapper
from repro.core.task import AppSpec
from repro.domain.descriptor import DecompositionDescriptor
from repro.errors import (
    DataLostError,
    MemoryPressureError,
    NetworkPartitionError,
    QuorumError,
    WorkflowError,
)
from repro.hardware.cluster import Cluster
from repro.hardware.spec import generic_multicore
from repro.workflow.dag import Bundle, WorkflowDAG
from repro.workflow.engine import WorkflowEngine


def app(app_id, layout=(2, 2)):
    return AppSpec(
        app_id=app_id,
        name=f"app{app_id}",
        descriptor=DecompositionDescriptor.uniform((8, 8), layout),
    )


def cluster(nodes=4, cpn=4):
    return Cluster(nodes, machine=generic_multicore(cpn))


class TestEnactment:
    def test_sequential_order_and_times(self):
        dag = WorkflowDAG([app(1), app(2)], edges=[(1, 2)])
        eng = WorkflowEngine(dag, cluster())
        eng.set_routine(1, lambda ctx: 5.0)
        eng.set_routine(2, lambda ctx: 3.0)
        runs = eng.run()
        assert runs[1].start == 0.0 and runs[1].finish == 5.0
        assert runs[2].start == 5.0 and runs[2].finish == 8.0
        assert eng.makespan == 8.0

    def test_concurrent_bundle_runs_together(self):
        dag = WorkflowDAG([app(1), app(2)], bundles=[Bundle((1, 2))])
        eng = WorkflowEngine(dag, cluster())
        eng.set_routine(1, lambda ctx: 4.0)
        eng.set_routine(2, lambda ctx: 2.0)
        runs = eng.run()
        assert runs[1].start == runs[2].start == 0.0
        assert eng.makespan == 4.0

    def test_climate_pattern(self):
        """Land and sea-ice run concurrently after the atmosphere model."""
        dag = WorkflowDAG(
            [app(1), app(2), app(3)],
            edges=[(1, 2), (1, 3)],
        )
        eng = WorkflowEngine(dag, cluster())
        eng.set_routine(1, lambda ctx: 2.0)
        eng.set_routine(2, lambda ctx: 1.0)
        eng.set_routine(3, lambda ctx: 5.0)
        runs = eng.run()
        assert runs[2].start == runs[3].start == 2.0
        assert eng.makespan == 7.0

    def test_bundle_completes_when_all_apps_finish(self):
        dag = WorkflowDAG(
            [app(1), app(2), app(3)],
            edges=[(1, 3), (2, 3)],
            bundles=[Bundle((1, 2)), Bundle((3,))],
        )
        eng = WorkflowEngine(dag, cluster())
        eng.set_routine(1, lambda ctx: 1.0)
        eng.set_routine(2, lambda ctx: 6.0)
        runs = eng.run()
        assert runs[3].start == 6.0

    def test_context_contents(self):
        dag = WorkflowDAG([app(1)])
        eng = WorkflowEngine(dag, cluster())
        seen = {}

        def routine(ctx):
            seen["group_size"] = ctx.group.size
            seen["core0"] = ctx.core_of_rank(0)
            seen["mapped"] = ctx.mapping.core_of(1, 0)
            return 0.0

        eng.set_routine(1, routine)
        eng.run()
        assert seen["group_size"] == 4
        assert seen["core0"] == seen["mapped"]

    def test_default_routine_is_instant(self):
        dag = WorkflowDAG([app(1)])
        eng = WorkflowEngine(dag, cluster())
        runs = eng.run()
        assert runs[1].finish == 0.0

    def test_lazy_mapper_context(self):
        dag = WorkflowDAG([app(1), app(2)], edges=[(1, 2)])
        eng = WorkflowEngine(dag, cluster())
        resolved = []

        class SpyMapper(RoundRobinMapper):
            def map_bundle(self, apps, clu, probe=None, **ctx):
                resolved.append(probe)
                return super().map_bundle(apps, clu)

        eng.set_bundle_mapper(
            eng.bundle_index_of(2), SpyMapper(), probe=lambda: "resolved-late"
        )
        eng.run()
        assert resolved == ["resolved-late"]

    def test_clients_released_between_waves(self):
        """Sequential apps can reuse the same cores."""
        big = app(1, layout=(4, 4))  # needs all 16 cores
        big2 = AppSpec(app_id=2, name="app2", descriptor=big.descriptor)
        dag = WorkflowDAG([big, big2], edges=[(1, 2)])
        eng = WorkflowEngine(dag, cluster())
        runs = eng.run()
        assert set(runs) == {1, 2}

    def test_errors(self):
        dag = WorkflowDAG([app(1)])
        eng = WorkflowEngine(dag, cluster())
        with pytest.raises(WorkflowError):
            eng.set_routine(9, lambda ctx: 0.0)
        with pytest.raises(WorkflowError):
            eng.set_bundle_mapper(5, RoundRobinMapper())
        eng.set_routine(1, lambda ctx: -1.0)
        with pytest.raises(WorkflowError):
            eng.run()

    def test_no_rerun(self):
        dag = WorkflowDAG([app(1)])
        eng = WorkflowEngine(dag, cluster())
        eng.run()
        with pytest.raises(WorkflowError):
            eng.run()


class TestRetryExhaustion:
    """The give-up message names the rung chain and the original error."""

    @pytest.mark.parametrize("exc_type, chain", [
        (MemoryPressureError, "memory → data-loss"),
        (QuorumError, "partition → data-loss"),
        (NetworkPartitionError, "partition → data-loss"),
        (DataLostError, "data-loss"),
    ])
    def test_message_names_chain_and_error(self, exc_type, chain):
        eng = WorkflowEngine(WorkflowDAG([app(1)]), cluster())

        def routine(ctx):
            raise exc_type("no room")

        eng.set_routine(1, routine)
        with pytest.raises(WorkflowError) as info:
            eng.run()
        assert str(info.value) == (
            f"bundle 0 gave up after 8 data-loss retries "
            f"({chain}, {exc_type.__name__}: no room)"
        )
