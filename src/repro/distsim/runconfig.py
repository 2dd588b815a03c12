"""Run configuration: which machine, how many nodes, which optimizations.

Mirrors the knobs the paper turns: SVE vectorization on/off (Fig. 7), the
local-communication optimization on/off (Fig. 8), multipole tasks per
kernel (Fig. 9), boost mode (Fig. 3), and CPU-only versus GPU execution
(Figs. 4/5).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.specs import MachineModel


@dataclass(frozen=True)
class RunConfig:
    machine: MachineModel
    nodes: int = 1
    use_gpus: bool = False
    simd: bool = True  # explicit SIMD types (SVE/AVX) in compute kernels
    boost: bool = False  # Fugaku 2.2 GHz boost mode
    comm_local_optimization: bool = True  # paper SVII-B
    #: Coalesce all ghost transfers between a locality pair into one
    #: flat-buffer bundle message per step phase (see ``docs/comms.md``):
    #: O(neighbor localities) payload messages instead of O(leaf faces).
    coalesce: bool = True
    #: Futurized communication/compute overlap (HPX's raison d'être and the
    #: process backend's ``--overlap`` schedule): when off, the full ghost
    #: wire time is exposed on the critical path instead of being hidden
    #: behind interior compute.
    overlap: bool = True
    tasks_per_multipole_kernel: int = 1  # paper SVII-C ("OFF"=1, "ON"=16)
    gpu_aggregation: int = 16  # kernel launches fused per device launch
    cores: int = 0  # 0 = all node cores (Fig. 3 sweeps this)
    #: Fraction of the ideal SIMD-type speedup realised; the paper's Fugaku
    #: runs used "an older version of SVE vectorization" than the later
    #: Ookami runs (Fig. 10), modelled as maturity < 1.
    simd_maturity: float = 1.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError("nodes must be >= 1")
        if self.tasks_per_multipole_kernel < 1:
            raise ValueError("tasks_per_multipole_kernel must be >= 1")
        if self.gpu_aggregation < 1:
            raise ValueError("gpu_aggregation must be >= 1")
        if self.use_gpus and not self.machine.node.gpus:
            raise ValueError(f"{self.machine.name} nodes have no GPUs")
        if self.boost and self.machine.node.boost_freq_ghz is None:
            raise ValueError(f"{self.machine.name} has no boost mode")
        if self.cores < 0 or self.cores > self.machine.node.cores:
            raise ValueError(
                f"cores must be in [0, {self.machine.node.cores}]"
            )
        if not 0.0 <= self.simd_maturity <= 1.0:
            raise ValueError("simd_maturity must be in [0, 1]")

    @property
    def active_cores(self) -> int:
        return self.cores or self.machine.node.cores

    @property
    def frequency_ghz(self) -> float:
        node = self.machine.node
        return (node.boost_freq_ghz or node.freq_ghz) if self.boost else node.freq_ghz
