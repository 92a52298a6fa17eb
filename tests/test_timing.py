"""Tests for :mod:`repro.nand.timing`."""

from __future__ import annotations

import pytest

from repro.nand.timing import TimingModel


class TestDefaults:
    def test_femu_defaults_match_paper(self):
        timing = TimingModel.femu_default()
        assert timing.read_us == 40.0
        assert timing.program_us == 200.0
        assert timing.erase_us == 2000.0

    def test_prediction_cost_matches_figure_15(self):
        assert TimingModel.femu_default().predict_us == pytest.approx(0.65)

    def test_sort_plus_train_is_about_50us(self):
        timing = TimingModel.femu_default()
        assert timing.sort_us_per_entry + timing.train_us_per_entry == pytest.approx(50.0)


class TestLatencyOf:
    def test_latency_of_each_kind(self):
        timing = TimingModel.femu_default()
        assert timing.latency_of("read") == 40.0
        assert timing.latency_of("program") == 200.0
        assert timing.latency_of("erase") == 2000.0

    def test_latency_of_includes_channel_transfer(self):
        timing = TimingModel(channel_transfer_us=5.0)
        assert timing.latency_of("read") == 45.0
        assert timing.latency_of("program") == 205.0
        assert timing.latency_of("erase") == 2000.0  # erase has no transfer

    def test_latency_of_unknown_kind(self):
        with pytest.raises(ValueError):
            TimingModel.femu_default().latency_of("trim")
