"""Flash energy model (Figure 22).

The paper builds "a basic power/energy model based on NANDFlashSim" and reports
the *relative* energy of the FTL designs under the four traces.  The result is
entirely driven by how many reads, programs and erases each FTL issues, because
program and erase energy dwarf read energy.  We therefore use a per-operation
energy model with representative single-die NAND numbers (in microjoules):

* read        ~ 25 uJ   (sense + transfer of one 4 KB page)
* program     ~ 110 uJ
* erase       ~ 190 uJ  (per block erase pulse)
* idle/static power is identical across FTLs for a fixed workload and is
  therefore omitted from the comparison, exactly as in the paper's figure,
  which normalizes to TPFTL.

The absolute constants only set the scale; every figure that uses this module
reports energy normalized to a baseline FTL.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ssd.stats import SimulationStats

__all__ = ["EnergyModel", "EnergyBreakdown"]


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy attributed to each flash operation class, in microjoules."""

    read_uj: float
    program_uj: float
    erase_uj: float
    controller_uj: float

    @property
    def total_uj(self) -> float:
        """Total energy in microjoules."""
        return self.read_uj + self.program_uj + self.erase_uj + self.controller_uj


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy constants.

    ``controller_uw_per_compute_us`` converts the controller computation time
    charged by LearnedFTL (sorting/training/prediction) into energy, assuming a
    ~1 W embedded core; it is negligible in practice, which is the point the
    paper makes in Section IV-C.
    """

    read_energy_uj: float = 25.0
    program_energy_uj: float = 110.0
    erase_energy_uj: float = 190.0
    controller_uw_per_compute_us: float = 1.0

    def evaluate(self, stats: SimulationStats) -> EnergyBreakdown:
        """Compute the energy breakdown for a finished simulation run."""
        read_uj = stats.total_flash_reads * self.read_energy_uj
        program_uj = stats.total_flash_programs * self.program_energy_uj
        erase_uj = stats.total_flash_erases * self.erase_energy_uj
        # 1 uW sustained for 1 us is 1 pJ, i.e. 1e-6 uJ.
        controller_uj = stats.compute_time_us() * self.controller_uw_per_compute_us * 1e-6
        return EnergyBreakdown(
            read_uj=read_uj,
            program_uj=program_uj,
            erase_uj=erase_uj,
            controller_uj=controller_uj,
        )
