"""Tests for :mod:`repro.nand.geometry`."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nand.errors import GeometryError
from repro.nand.geometry import SSDGeometry


class TestConstruction:
    def test_basic_counts(self):
        geo = SSDGeometry(
            channels=2, chips_per_channel=3, planes_per_chip=2, blocks_per_plane=4, pages_per_block=8
        )
        assert geo.num_chips == 6
        assert geo.num_planes == 12
        assert geo.num_blocks == 48
        assert geo.num_physical_pages == 384

    def test_physical_bytes(self):
        geo = SSDGeometry.small()
        assert geo.physical_bytes == geo.num_physical_pages * geo.page_size

    def test_logical_smaller_than_physical(self):
        geo = SSDGeometry.small()
        assert 0 < geo.num_logical_pages < geo.num_physical_pages

    def test_logical_bytes(self):
        geo = SSDGeometry.small()
        assert geo.logical_bytes == geo.num_logical_pages * geo.page_size

    @pytest.mark.parametrize(
        "field",
        ["channels", "chips_per_channel", "planes_per_chip", "blocks_per_plane", "pages_per_block"],
    )
    def test_rejects_non_positive_fields(self, field):
        kwargs = dict(
            channels=1, chips_per_channel=1, planes_per_chip=1, blocks_per_plane=1, pages_per_block=1
        )
        kwargs[field] = 0
        with pytest.raises(GeometryError):
            SSDGeometry(**kwargs)

    def test_rejects_bad_op_ratio(self):
        with pytest.raises(GeometryError):
            SSDGeometry(
                channels=1,
                chips_per_channel=1,
                planes_per_chip=1,
                blocks_per_plane=1,
                pages_per_block=1,
                op_ratio=0.95,
            )

    def test_frozen(self):
        geo = SSDGeometry.small()
        with pytest.raises(AttributeError):
            geo.channels = 4  # type: ignore[misc]


class TestPresets:
    def test_paper_preset_matches_section_iv(self):
        geo = SSDGeometry.paper()
        assert geo.num_chips == 64
        assert geo.planes_per_chip * geo.blocks_per_plane == 256
        assert geo.pages_per_block == 512
        assert geo.page_size == 4096
        # 64 chips x 256 blocks x 512 pages x 4 KB = 32 GiB raw.
        assert geo.physical_bytes == 32 * 1024**3

    def test_paper_translation_pages(self):
        geo = SSDGeometry.paper()
        assert geo.mappings_per_translation_page == 512
        # The paper states the GTD has 16384 entries (Section IV-A).
        assert geo.num_translation_pages == pytest.approx(16384, rel=0.07)

    def test_small_preset_is_small(self):
        geo = SSDGeometry.small()
        assert geo.num_physical_pages < 10_000

    def test_medium_preset_between_small_and_paper(self):
        small, medium, paper = SSDGeometry.small(), SSDGeometry.medium(), SSDGeometry.paper()
        assert small.num_physical_pages < medium.num_physical_pages < paper.num_physical_pages

    def test_describe_mentions_counts(self):
        text = SSDGeometry.small().describe()
        assert "channels" in text
        assert "translation pages" in text


class TestValidation:
    def test_check_block_bounds(self):
        geo = SSDGeometry.small()
        geo.check_block(0)
        geo.check_block(geo.num_blocks - 1)
        with pytest.raises(GeometryError):
            geo.check_block(geo.num_blocks)
        with pytest.raises(GeometryError):
            geo.check_block(-1)

    def test_check_ppn_bounds(self):
        geo = SSDGeometry.small()
        geo.check_ppn(0)
        with pytest.raises(GeometryError):
            geo.check_ppn(geo.num_physical_pages)

    def test_check_lpn_bounds(self):
        geo = SSDGeometry.small()
        geo.check_lpn(geo.num_logical_pages - 1)
        with pytest.raises(GeometryError):
            geo.check_lpn(geo.num_logical_pages)


class TestDerivedProperties:
    @given(
        channels=st.integers(1, 4),
        chips=st.integers(1, 4),
        planes=st.integers(1, 2),
        blocks=st.integers(1, 16),
        pages=st.integers(1, 64),
    )
    @settings(max_examples=50, deadline=None)
    def test_page_count_is_product(self, channels, chips, planes, blocks, pages):
        geo = SSDGeometry(
            channels=channels,
            chips_per_channel=chips,
            planes_per_chip=planes,
            blocks_per_plane=blocks,
            pages_per_block=pages,
        )
        assert geo.num_physical_pages == channels * chips * planes * blocks * pages
        assert geo.num_blocks * geo.pages_per_block == geo.num_physical_pages

    @given(op=st.floats(0.0, 0.8))
    @settings(max_examples=30, deadline=None)
    def test_logical_pages_respect_op_ratio(self, op):
        geo = SSDGeometry(
            channels=2,
            chips_per_channel=2,
            planes_per_chip=1,
            blocks_per_plane=8,
            pages_per_block=32,
            op_ratio=op,
        )
        assert geo.num_logical_pages == int(geo.num_physical_pages * (1.0 - op))

    def test_translation_pages_cover_logical_space(self):
        geo = SSDGeometry.small()
        covered = geo.num_translation_pages * geo.mappings_per_translation_page
        assert covered >= geo.num_logical_pages
