"""CUDA-shaped runtime: cuda_malloc hints, GetAllocation, launch."""

import dataclasses

import pytest

from conftest import TEST_ACCESSES
from repro.core.errors import AllocationError, PolicyError
from repro.core.units import PAGE_SIZE
from repro.memory.acpi import enumerate_tables
from repro.memory.topology import simulated_baseline
from repro.policies.annotated import PlacementHint
from repro.profiling.profiler import PageAccessProfiler, WorkloadProfile
from repro.runtime.cuda import CudaRuntime
from repro.runtime import hints as hints_module
from repro.runtime.hints import get_allocation, hints_from_profile
from repro.workloads import get_workload

TABLES = enumerate_tables(simulated_baseline())
BO = PlacementHint.BANDWIDTH_OPTIMIZED
CO = PlacementHint.CAPACITY_OPTIMIZED
BW = PlacementHint.BW_AWARE


class TestGetAllocation:
    def test_unconstrained_everything_bwaware(self):
        # BO pool easily holds the BW-AWARE share: hotness irrelevant.
        hints = get_allocation(
            sizes=[10 * PAGE_SIZE, 10 * PAGE_SIZE],
            hotness=[1.0, 100.0],
            tables=TABLES,
            bo_capacity_bytes=100 * PAGE_SIZE,
        )
        assert hints == [BW, BW]

    def test_constrained_hottest_density_wins_bo(self):
        hints = get_allocation(
            sizes=[10 * PAGE_SIZE, 10 * PAGE_SIZE, 10 * PAGE_SIZE],
            hotness=[1.0, 50.0, 5.0],
            tables=TABLES,
            bo_capacity_bytes=10 * PAGE_SIZE,
        )
        assert hints == [CO, BO, CO]

    def test_density_not_total_hotness(self):
        # A huge structure with big total traffic but low per-byte
        # hotness must lose to a small hot one.
        hints = get_allocation(
            sizes=[100 * PAGE_SIZE, 5 * PAGE_SIZE],
            hotness=[50.0, 25.0],
            tables=TABLES,
            bo_capacity_bytes=5 * PAGE_SIZE,
        )
        assert hints == [CO, BO]

    def test_oversized_hot_structure_still_hinted_bo(self):
        # Its prefix fills the pool; the spill keeps BO fully used.
        hints = get_allocation(
            sizes=[50 * PAGE_SIZE], hotness=[10.0],
            tables=TABLES, bo_capacity_bytes=5 * PAGE_SIZE,
        )
        assert hints == [BO]

    def test_empty_program(self):
        assert get_allocation([], [], TABLES, 0) == []

    def test_validation(self):
        with pytest.raises(PolicyError):
            get_allocation([PAGE_SIZE], [1.0, 2.0], TABLES, PAGE_SIZE)
        with pytest.raises(PolicyError):
            get_allocation([0], [1.0], TABLES, PAGE_SIZE)
        with pytest.raises(PolicyError):
            get_allocation([PAGE_SIZE], [-1.0], TABLES, PAGE_SIZE)
        with pytest.raises(PolicyError):
            get_allocation([PAGE_SIZE], [1.0], TABLES, -1)


class TestHintsFromProfile:
    def test_bfs_hot_structures_hinted_bo_under_constraint(self):
        workload = get_workload("bfs")
        profile = PageAccessProfiler().profile(
            workload, n_accesses=TEST_ACCESSES
        )
        bo_bytes = workload.footprint_bytes() // 10
        hints = hints_from_profile(workload, profile, TABLES, bo_bytes)
        assert hints["d_graph_visited"] is BO
        assert hints["d_graph_edges"] is CO

    def test_unconstrained_profile_gives_bw_hints(self):
        workload = get_workload("bfs")
        profile = PageAccessProfiler().profile(
            workload, n_accesses=TEST_ACCESSES
        )
        hints = hints_from_profile(
            workload, profile, TABLES,
            bo_capacity_bytes=workload.footprint_bytes() * 2,
        )
        assert set(hints.values()) == {BW}

    def test_cross_dataset_sizes_come_from_test_dataset(self):
        workload = get_workload("bfs")
        profile = PageAccessProfiler().profile(
            workload, "default", n_accesses=TEST_ACCESSES
        )
        hints = hints_from_profile(
            workload, profile, TABLES,
            bo_capacity_bytes=workload.footprint_bytes("graph1M") // 10,
            dataset="graph1M",
        )
        assert set(hints) == {
            s.name for s in workload.data_structures("graph1M")
        }

    def test_structure_absent_from_profile_gets_zero_hotness(
            self, monkeypatch):
        workload = get_workload("bfs")
        profile = PageAccessProfiler().profile(
            workload, n_accesses=TEST_ACCESSES
        )
        absent = profile.structures[0].name
        profile = dataclasses.replace(profile, structures=tuple(
            dataclasses.replace(s, name="renamed") if s.name == absent
            else s for s in profile.structures
        ))
        seen = {}

        def recording_get_allocation(sizes, hotness, *args, **kwargs):
            seen["hotness"] = list(hotness)
            return get_allocation(sizes, hotness, *args, **kwargs)

        monkeypatch.setattr(hints_module, "get_allocation",
                            recording_get_allocation)
        hints = hints_from_profile(workload, profile, TABLES,
                                   workload.footprint_bytes() // 10)
        names = [s.name for s in workload.data_structures()]
        assert absent in hints
        assert seen["hotness"][names.index(absent)] == 0.0
        assert all(h > 0.0 for i, h in enumerate(seen["hotness"])
                   if names[i] != absent)

    def test_profile_lookup_bug_propagates(self, monkeypatch):
        workload = get_workload("bfs")
        profile = PageAccessProfiler().profile(
            workload, n_accesses=TEST_ACCESSES
        )

        def broken_lookup(self, name):
            raise TypeError("profile lookup bug")

        monkeypatch.setattr(WorkloadProfile, "structure_by_name",
                            broken_lookup)
        with pytest.raises(TypeError, match="profile lookup bug"):
            hints_from_profile(workload, profile, TABLES,
                               workload.footprint_bytes() // 10)


class TestCudaRuntime:
    def test_malloc_returns_device_pointer(self):
        runtime = CudaRuntime(seed=1)
        pointer = runtime.cuda_malloc(3 * PAGE_SIZE, name="buf")
        assert pointer.size_bytes == 3 * PAGE_SIZE
        assert pointer.name == "buf"
        assert pointer.address > 0

    def test_hints_respected(self):
        runtime = CudaRuntime(seed=1)
        runtime.cuda_malloc(4 * PAGE_SIZE, hint="CO", name="cold")
        info = runtime.memory_info()
        assert info["CPU-DDR4"][0] == 4
        assert info["GPU-GDDR5"][0] == 0

    def test_zero_size_rejected(self):
        with pytest.raises(AllocationError):
            CudaRuntime().cuda_malloc(0)

    def test_cuda_free(self):
        runtime = CudaRuntime(seed=1)
        pointer = runtime.cuda_malloc(4 * PAGE_SIZE, hint="BO")
        runtime.cuda_free(pointer)
        assert runtime.memory_info()["GPU-GDDR5"][0] == 0

    def test_launch_requires_full_allocation(self):
        runtime = CudaRuntime(seed=1)
        with pytest.raises(AllocationError):
            runtime.launch(get_workload("bfs"),
                           n_accesses=TEST_ACCESSES)

    def test_malloc_workload_then_launch(self):
        runtime = CudaRuntime(seed=1)
        workload = get_workload("bfs")
        pointers = runtime.malloc_workload(workload)
        assert len(pointers) == len(workload.data_structures())
        result = runtime.launch(workload, n_accesses=TEST_ACCESSES)
        assert result.total_time_ns > 0

    def test_hinted_workload_placement_differs(self):
        workload = get_workload("bfs")
        plain = CudaRuntime(seed=1)
        plain.malloc_workload(workload)
        hinted = CudaRuntime(seed=1)
        hinted.malloc_workload(
            workload,
            hints={s.name: "CO" for s in workload.data_structures()},
        )
        assert (hinted.memory_info()["CPU-DDR4"][0]
                > plain.memory_info()["CPU-DDR4"][0])
