"""Machine models: specs, power, software manifest."""

import pytest

from repro.machines import (
    FUGAKU,
    MACHINES,
    OOKAMI,
    PERLMUTTER,
    PIZ_DAINT,
    SUMMIT,
    PowerModel,
    format_manifest,
    software_manifest,
)


class TestNodeSpecs:
    def test_all_machines_registered(self):
        assert set(MACHINES) == {"Fugaku", "Ookami", "Summit", "Piz Daint", "Perlmutter"}

    def test_a64fx_peak(self):
        # 48 cores x 32 DP flops/cycle x 1.8 GHz = 2.765 TF.
        assert FUGAKU.node.peak_flops() == pytest.approx(2.7648e12)
        assert FUGAKU.node.peak_flops(boost=True) == pytest.approx(3.3792e12)

    def test_fugaku_memory_is_papers_28gb(self):
        assert FUGAKU.node.memory_gb == 28.0

    def test_ookami_same_cpu_different_fabric(self):
        assert OOKAMI.node.cores == FUGAKU.node.cores
        assert OOKAMI.interconnect.name != FUGAKU.interconnect.name

    def test_sve_speedup_within_paper_window(self):
        ratio = FUGAKU.node.sustained_cpu_flops(simd=True) / FUGAKU.node.sustained_cpu_flops(simd=False)
        assert 2.0 <= ratio <= 3.0

    def test_gpu_counts(self):
        assert len(SUMMIT.node.gpus) == 6
        assert len(PIZ_DAINT.node.gpus) == 1
        assert len(PERLMUTTER.node.gpus) == 4
        assert not FUGAKU.node.gpus

    def test_gpu_sustained_ordering(self):
        # Calibration invariant behind Fig. 4: Summit node >> Piz Daint node.
        assert SUMMIT.node.sustained_gpu_flops() > 5 * PIZ_DAINT.node.sustained_gpu_flops()

    def test_fig5_calibration_invariants(self):
        # Fugaku scalar node slightly below CPU-only Perlmutter node.
        fugaku = FUGAKU.node.sustained_cpu_flops(simd=False)
        perl = PERLMUTTER.node.sustained_cpu_flops(simd=False)
        assert 0.5 < fugaku / perl < 1.0
        # 4x A100 roughly two orders over the CPU-only node.
        assert PERLMUTTER.node.sustained_gpu_flops() / perl > 50


class TestPower:
    def test_idle_floor(self):
        p = PowerModel(idle_w=35, peak_w=110, reference_freq_ghz=1.8)
        assert p.node_power(0.0) == 35.0

    def test_peak_at_full_utilization(self):
        p = PowerModel(idle_w=35, peak_w=110, reference_freq_ghz=1.8)
        assert p.node_power(1.0) == 110.0

    def test_frequency_cubed(self):
        p = PowerModel(idle_w=0, peak_w=100, reference_freq_ghz=2.0)
        assert p.node_power(1.0, freq_ghz=1.0) == pytest.approx(12.5)

    def test_job_power_scales_with_nodes(self):
        from repro.distsim.model import simulate_step
        from repro.distsim.runconfig import RunConfig
        from repro.scenarios import rotating_star

        spec = rotating_star(level=5, build_mesh=False).spec
        result = simulate_step(spec, RunConfig(machine=FUGAKU, nodes=1024))
        assert result.job_power_w == pytest.approx(1024 * result.node_power_w)

    def test_validation(self):
        p = FUGAKU.power
        with pytest.raises(ValueError):
            p.node_power(1.5)

    def test_boost_increases_power(self):
        p = FUGAKU.power
        assert p.node_power(0.9, freq_ghz=2.2) > p.node_power(0.9, freq_ghz=1.8)


class TestManifest:
    def test_table1_key_versions(self):
        fugaku = software_manifest("Fugaku")
        assert fugaku["gcc"] == "11.2.0"
        assert fugaku["hpx"] == "1.7.1"
        assert fugaku["boost"] == "1.79.0"
        assert fugaku["octo-tiger"] == "6848ea1"

    def test_ookami_column(self):
        ookami = software_manifest("Ookami")
        assert ookami["gcc"] == "12.1.0"
        assert ookami["octo-tiger"] == "8e4239411cfc36e9"

    def test_unknown_machine(self):
        with pytest.raises(KeyError):
            software_manifest("Frontier")

    def test_every_component_versioned(self):
        for machine in ("Fugaku", "Ookami"):
            for component, version in software_manifest(machine).items():
                assert version, component

    def test_format_contains_all_components(self):
        table = format_manifest()
        for component in software_manifest("Fugaku"):
            assert component in table
