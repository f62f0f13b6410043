"""The 19-benchmark workload suite: registry, geometry, traces."""

import numpy as np
import pytest

from conftest import TEST_ACCESSES
import repro.ingest
from repro.core.errors import WorkloadError
from repro.core.units import PAGE_SIZE
from repro.profiling.cdf import AccessCdf
from repro.workloads import (
    CROSS_DATASET_WORKLOADS,
    all_workloads,
    bandwidth_sensitive_workloads,
    get_workload,
    workload_names,
    workloads_by_suite,
)
from repro.workloads.suite import ingested_workload_names
from repro.workloads.base import (
    AccessPhase,
    DataStructureSpec,
    FOOTPRINT_SCALE,
    LINES_PER_PAGE,
    mib,
)

ALL_NAMES = workload_names()


class TestRegistry:
    def test_nineteen_benchmarks(self):
        assert len(ALL_NAMES) == 19

    def test_paper_controls_present(self):
        # 17 bandwidth sensitive + comd (insensitive) + sgemm (latency).
        assert "comd" in ALL_NAMES and "sgemm" in ALL_NAMES
        assert len(bandwidth_sensitive_workloads()) == 17

    def test_lookup_case_insensitive(self):
        assert get_workload("BFS").name == "bfs"

    def test_unknown_workload(self):
        with pytest.raises(WorkloadError):
            get_workload("doom")

    def test_suites_partition_the_benchmarks(self):
        total = sum(
            len(workloads_by_suite(s)) for s in ("rodinia", "parboil", "hpc")
        )
        assert total == 19

    def test_unknown_suite(self):
        with pytest.raises(WorkloadError):
            workloads_by_suite("spec2006")

    def test_unreachable_trace_registry_logs_and_is_empty(
            self, monkeypatch, capsys):
        def unreachable():
            raise OSError("registry root unreadable")

        monkeypatch.setattr(repro.ingest, "default_registry", unreachable)
        assert ingested_workload_names() == ()
        err = capsys.readouterr().err
        assert "workloads.registry_unavailable" in err
        assert "registry root unreadable" in err

    def test_trace_registry_bug_propagates(self, monkeypatch):
        def broken():
            raise RuntimeError("registry bug")

        monkeypatch.setattr(repro.ingest, "default_registry", broken)
        with pytest.raises(RuntimeError, match="registry bug"):
            ingested_workload_names()

    def test_cross_dataset_workloads_have_alternates(self):
        for name in CROSS_DATASET_WORKLOADS:
            assert len(get_workload(name).datasets()) >= 3

    def test_sgemm_flagged_latency_sensitive(self):
        assert get_workload("sgemm").latency_sensitive
        assert not get_workload("sgemm").bandwidth_sensitive


class TestSpecs:
    def test_mib_is_scaled_and_page_aligned(self):
        assert mib(8) == int(8 * 1024 * 1024 * FOOTPRINT_SCALE)
        assert mib(8) % PAGE_SIZE == 0
        assert mib(0.0001) == PAGE_SIZE

    def test_mib_rejects_nonpositive(self):
        with pytest.raises(WorkloadError):
            mib(0)

    def test_spec_geometry(self):
        spec = DataStructureSpec("x", 2 * PAGE_SIZE, traffic_weight=1.0)
        assert spec.n_pages == 2
        assert spec.n_lines == 2 * LINES_PER_PAGE
        assert spec.hotness_density == pytest.approx(0.5)

    def test_spec_validation(self):
        with pytest.raises(WorkloadError):
            DataStructureSpec("x", 0, traffic_weight=1.0)
        with pytest.raises(WorkloadError):
            DataStructureSpec("x", PAGE_SIZE, traffic_weight=-1.0)
        with pytest.raises(WorkloadError):
            DataStructureSpec("x", PAGE_SIZE, traffic_weight=1.0,
                              pattern="nope")

    def test_phase_validation(self):
        with pytest.raises(WorkloadError):
            AccessPhase("p", duration_weight=0.0)

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_workload_has_structures(self, name):
        specs = get_workload(name).data_structures()
        assert len(specs) >= 2
        assert all(s.traffic_weight >= 0 for s in specs)
        assert sum(s.traffic_weight for s in specs) > 0

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_page_ranges_tile_the_footprint(self, name):
        workload = get_workload(name)
        ranges = workload.page_ranges()
        covered = sorted(
            page for pages in ranges.values() for page in pages
        )
        assert covered == list(range(workload.footprint_pages()))

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_unknown_dataset_rejected(self, name):
        with pytest.raises(WorkloadError):
            get_workload(name).data_structures("nonexistent-input")


class TestTraces:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_dram_trace_within_footprint(self, name):
        workload = get_workload(name)
        trace = workload.dram_trace(n_accesses=TEST_ACCESSES)
        assert trace.footprint_pages == workload.footprint_pages()
        assert trace.page_indices.max() < trace.footprint_pages
        assert trace.n_raw_accesses >= trace.n_accesses

    def test_trace_memoized(self):
        workload = get_workload("bfs")
        first = workload.dram_trace(n_accesses=TEST_ACCESSES)
        second = workload.dram_trace(n_accesses=TEST_ACCESSES)
        assert first is second

    def test_different_seeds_differ(self):
        workload = get_workload("bfs")
        a = workload.dram_trace(n_accesses=TEST_ACCESSES, seed=1)
        b = workload.dram_trace(n_accesses=TEST_ACCESSES, seed=2)
        assert not np.array_equal(a.page_indices, b.page_indices)

    def test_unfiltered_trace_is_larger(self):
        workload = get_workload("sgemm")
        filtered = workload.dram_trace(n_accesses=TEST_ACCESSES)
        raw = workload.dram_trace(n_accesses=TEST_ACCESSES,
                                  filtered=False)
        assert raw.n_accesses > filtered.n_accesses
        assert raw.miss_rate() == pytest.approx(1.0)

    def test_raw_trace_covers_structures_by_weight(self):
        workload = get_workload("kmeans")
        trace = workload.dram_trace(n_accesses=TEST_ACCESSES,
                                    filtered=False)
        ranges = workload.page_ranges()
        counts = trace.page_access_counts()
        centroid_traffic = counts[
            ranges["centroids"].start:ranges["centroids"].stop
        ].sum()
        # Centroids carry 30/100 of the traffic weight.
        assert centroid_traffic / counts.sum() == pytest.approx(0.30,
                                                                abs=0.03)

    def test_bad_trace_length_rejected(self):
        with pytest.raises(WorkloadError):
            get_workload("bfs").raw_line_trace(n_accesses=0)


class TestPaperCharacterization:
    """The Figure 6/7 characterization claims, as suite invariants."""

    def _cdf(self, name):
        trace = get_workload(name).dram_trace(n_accesses=120_000)
        return AccessCdf.from_counts(trace.page_access_counts())

    @pytest.mark.parametrize("name", ["bfs", "xsbench"])
    def test_skewed_workloads(self, name):
        # ">60% of memory bandwidth from within 10% of pages".
        assert self._cdf(name).traffic_at_footprint(0.1) >= 0.55

    @pytest.mark.parametrize("name", ["hotspot", "lbm", "stencil", "srad"])
    def test_linear_cdf_workloads(self, name):
        assert self._cdf(name).traffic_at_footprint(0.1) <= 0.25

    def test_needle_fairly_linear(self):
        assert self._cdf("needle").traffic_at_footprint(0.1) <= 0.35

    def test_mummergpu_has_never_accessed_ranges(self):
        trace = get_workload("mummergpu").dram_trace(n_accesses=120_000)
        counts = trace.page_access_counts()
        assert (counts == 0).sum() > 0.1 * counts.size

    def test_bfs_hot_structures_are_the_paper_three(self):
        workload = get_workload("bfs")
        trace = workload.dram_trace(n_accesses=120_000)
        counts = trace.page_access_counts()
        ranges = workload.page_ranges()
        shares = {
            name: counts[r.start:r.stop].sum() / counts.sum()
            for name, r in ranges.items()
        }
        hot3 = sum(shares[n] for n in (
            "d_graph_visited", "d_updating_graph_mask", "d_cost"
        ))
        footprint3 = sum(len(ranges[n]) for n in (
            "d_graph_visited", "d_updating_graph_mask", "d_cost"
        )) / workload.footprint_pages()
        assert hot3 >= 0.7          # ~80% of traffic...
        assert footprint3 <= 0.25   # ...in ~20% of the footprint


class TestDatasetScaling:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_every_workload_has_multiple_datasets(self, name):
        assert len(get_workload(name).datasets()) >= 3

    def test_generic_large_scales_footprint(self):
        workload = get_workload("lbm")
        default = workload.footprint_pages("default")
        assert workload.footprint_pages("large") == pytest.approx(
            default * 1.5, rel=0.02
        )
        assert workload.footprint_pages("small") < default

    def test_scaling_preserves_traffic_shares(self):
        workload = get_workload("hotspot")
        default = workload.data_structures("default")
        large = workload.data_structures("large")
        for a, b in zip(default, large):
            assert a.name == b.name
            assert a.traffic_weight == b.traffic_weight
            assert a.pattern == b.pattern
            assert b.size_bytes > a.size_bytes

    def test_explicit_dataset_workloads_not_double_scaled(self):
        # xsbench names a dataset "large" itself; the generic scale
        # must not stack on top of the workload's own sizing.
        workload = get_workload("xsbench")
        specs = {s.name: s for s in workload.data_structures("large")}
        nominal = {
            s.name: s for s in workload.data_structures("default")
        }
        # The workload's own grid scale is 2.0; generic 1.5x stacking
        # would give 3x.
        ratio = (specs["unionized_energy_grid"].size_bytes
                 / nominal["unionized_energy_grid"].size_bytes)
        assert ratio == pytest.approx(2.0, rel=0.05)

    def test_scaled_traces_stay_in_footprint(self):
        workload = get_workload("kmeans")
        trace = workload.dram_trace("large", n_accesses=TEST_ACCESSES)
        assert trace.footprint_pages == workload.footprint_pages("large")
        assert trace.page_indices.max() < trace.footprint_pages


class TestCharacteristics:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_write_fraction_derived_from_specs(self, name):
        chars = get_workload(name).characteristics()
        assert 0.0 <= chars.write_fraction <= 1.0

    def test_sgemm_low_parallelism(self):
        assert get_workload("sgemm").characteristics().parallelism < 64

    def test_comd_compute_heavy(self):
        comd = get_workload("comd").characteristics()
        lbm = get_workload("lbm").characteristics()
        assert comd.compute_ns_per_access > 5 * lbm.compute_ns_per_access
