"""Tests for the energy model (Figure 22 substrate)."""

from __future__ import annotations

import pytest

from repro.ssd.energy import EnergyModel
from repro.ssd.request import CommandKind, CommandPurpose, command_code
from repro.ssd.stats import SimulationStats


def _stats(reads=0, programs=0, erases=0, compute_us=0.0) -> SimulationStats:
    stats = SimulationStats()
    stats.command_counts[command_code(CommandKind.READ, CommandPurpose.DATA_READ)] += reads
    stats.command_counts[command_code(CommandKind.PROGRAM, CommandPurpose.DATA_WRITE)] += programs
    stats.command_counts[command_code(CommandKind.ERASE, CommandPurpose.GC_ERASE)] += erases
    stats.predict_time_us = compute_us
    return stats


class TestEnergyModel:
    def test_read_energy_scales_with_reads(self):
        model = EnergyModel()
        breakdown = model.evaluate(_stats(reads=10))
        assert breakdown.read_uj == pytest.approx(10 * model.read_energy_uj)
        assert breakdown.program_uj == 0.0

    def test_program_and_erase_energy(self):
        model = EnergyModel()
        breakdown = model.evaluate(_stats(programs=3, erases=2))
        assert breakdown.program_uj == pytest.approx(3 * model.program_energy_uj)
        assert breakdown.erase_uj == pytest.approx(2 * model.erase_energy_uj)

    def test_total_is_sum_of_parts(self):
        breakdown = EnergyModel().evaluate(_stats(reads=5, programs=5, erases=1, compute_us=100.0))
        assert breakdown.total_uj == pytest.approx(
            breakdown.read_uj + breakdown.program_uj + breakdown.erase_uj + breakdown.controller_uj
        )

    def test_controller_energy_is_tiny(self):
        breakdown = EnergyModel().evaluate(_stats(reads=1, compute_us=1000.0))
        assert breakdown.controller_uj < breakdown.read_uj

    def test_total_mj_conversion(self):
        breakdown = EnergyModel().evaluate(_stats(reads=1000))
        assert breakdown.total_mj == pytest.approx(breakdown.total_uj / 1000.0)

    def test_total_uj_helper(self):
        model = EnergyModel()
        stats = _stats(reads=2)
        assert model.total_uj(stats) == pytest.approx(model.evaluate(stats).total_uj)

    def test_program_dominates_read_per_op(self):
        model = EnergyModel()
        assert model.program_energy_uj > model.read_energy_uj

    def test_fewer_reads_means_less_energy(self):
        model = EnergyModel()
        assert model.total_uj(_stats(reads=100)) > model.total_uj(_stats(reads=50))
