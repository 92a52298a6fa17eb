"""Tests for the PPN/VPPN address codec (:mod:`repro.nand.address`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nand.address import AddressCodec, FlashAddress
from repro.nand.errors import GeometryError
from repro.nand.geometry import SSDGeometry


@pytest.fixture
def geometry() -> SSDGeometry:
    return SSDGeometry(
        channels=2, chips_per_channel=3, planes_per_chip=2, blocks_per_plane=4, pages_per_block=8
    )


@pytest.fixture
def codec(geometry) -> AddressCodec:
    return AddressCodec(geometry)


class TestPPNCodec:
    def test_round_trip_zero(self, codec):
        addr = FlashAddress(0, 0, 0, 0, 0)
        assert codec.encode_ppn(addr) == 0
        assert codec.decode_ppn(0) == addr

    def test_round_trip_last_page(self, codec, geometry):
        addr = FlashAddress(
            geometry.channels - 1,
            geometry.chips_per_channel - 1,
            geometry.planes_per_chip - 1,
            geometry.blocks_per_plane - 1,
            geometry.pages_per_block - 1,
        )
        ppn = codec.encode_ppn(addr)
        assert ppn == geometry.num_physical_pages - 1
        assert codec.decode_ppn(ppn) == addr

    def test_channel_is_most_significant(self, codec, geometry):
        low = codec.encode_ppn(FlashAddress(0, 2, 1, 3, 7))
        high = codec.encode_ppn(FlashAddress(1, 0, 0, 0, 0))
        assert high > low

    def test_page_is_least_significant(self, codec):
        a = codec.encode_ppn(FlashAddress(0, 0, 0, 0, 3))
        b = codec.encode_ppn(FlashAddress(0, 0, 0, 0, 4))
        assert b == a + 1

    def test_encode_rejects_out_of_range_fields(self, codec, geometry):
        with pytest.raises(GeometryError):
            codec.encode_ppn(FlashAddress(geometry.channels, 0, 0, 0, 0))
        with pytest.raises(GeometryError):
            codec.encode_ppn(FlashAddress(0, 0, 0, 0, geometry.pages_per_block))

    def test_decode_rejects_out_of_range_ppn(self, codec, geometry):
        with pytest.raises(GeometryError):
            codec.decode_ppn(geometry.num_physical_pages)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_ppn_round_trip_property(self, codec, geometry, data):
        ppn = data.draw(st.integers(0, geometry.num_physical_pages - 1))
        assert codec.encode_ppn(codec.decode_ppn(ppn)) == ppn


class TestVPPNCodec:
    def test_vppn_is_bijection(self, codec, geometry):
        seen = set()
        for ppn in range(geometry.num_physical_pages):
            vppn = codec.ppn_to_vppn(ppn)
            assert 0 <= vppn < geometry.num_physical_pages
            assert vppn not in seen
            seen.add(vppn)
            assert codec.vppn_to_ppn(vppn) == ppn

    def test_channel_is_least_significant_in_vppn(self, codec):
        a = codec.ppn_to_vppn(codec.encode_ppn(FlashAddress(0, 0, 0, 2, 5)))
        b = codec.ppn_to_vppn(codec.encode_ppn(FlashAddress(1, 0, 0, 2, 5)))
        assert b == a + 1

    def test_allocation_order_gives_contiguous_vppns(self, codec, geometry):
        """Pages written in striping order (channel, chip, plane, page) get consecutive VPPNs."""
        block = 2
        vppns = []
        for page in range(2):
            for plane in range(geometry.planes_per_chip):
                for chip in range(geometry.chips_per_channel):
                    for channel in range(geometry.channels):
                        ppn = codec.encode_ppn(FlashAddress(channel, chip, plane, block, page))
                        vppns.append(codec.ppn_to_vppn(ppn))
        # Re-order to match the allocation order used above (channel fastest).
        assert vppns == sorted(vppns)
        assert vppns[-1] - vppns[0] == len(vppns) - 1

    def test_paper_example_shape(self):
        """Figure 12: scattered PPNs across chips become consecutive VPPNs."""
        geometry = SSDGeometry.paper()
        codec = AddressCodec(geometry)
        ppns = [
            codec.encode_ppn(FlashAddress(channel=c, chip=5, plane=0, block=64, page=127))
            for c in (4, 5, 6)
        ]
        assert ppns != sorted(range(ppns[0], ppns[0] + 3))  # widely scattered
        vppns = [codec.ppn_to_vppn(p) for p in ppns]
        assert vppns[1] == vppns[0] + 1
        assert vppns[2] == vppns[1] + 1

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_vppn_round_trip_property(self, codec, geometry, data):
        ppn = data.draw(st.integers(0, geometry.num_physical_pages - 1))
        assert codec.vppn_to_ppn(codec.ppn_to_vppn(ppn)) == ppn


#: Small geometries with every field count varied, including two planes per chip.
geometries = st.builds(
    SSDGeometry,
    channels=st.integers(1, 4),
    chips_per_channel=st.integers(1, 3),
    planes_per_chip=st.integers(1, 2),
    blocks_per_plane=st.integers(2, 5),
    pages_per_block=st.integers(1, 8),
)


class TestColumnarVPPNCodec:
    """The ``_many`` forms against the scalar codec, which stays the reference."""

    @given(geometry=geometries, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_columns_match_the_scalar_codec(self, geometry, data):
        codec = AddressCodec(geometry)
        last = geometry.num_physical_pages - 1
        numbers = data.draw(st.lists(st.integers(0, last), max_size=40))
        column = np.array(numbers, dtype=np.int64)
        assert codec.ppn_to_vppn_many(column).tolist() == [codec.ppn_to_vppn(n) for n in numbers]
        assert codec.vppn_to_ppn_many(column).tolist() == [codec.vppn_to_ppn(n) for n in numbers]

    def test_whole_device_round_trip_with_two_planes(self, codec, geometry):
        assert geometry.planes_per_chip == 2
        ppns = np.arange(geometry.num_physical_pages, dtype=np.int64)
        vppns = codec.ppn_to_vppn_many(ppns)
        assert sorted(vppns.tolist()) == ppns.tolist()
        assert codec.vppn_to_ppn_many(vppns).tolist() == ppns.tolist()

    @pytest.mark.parametrize("bad", [-1, 10**9])
    def test_out_of_range_page_numbers_raise(self, codec, bad):
        column = np.array([0, bad, 1], dtype=np.int64)
        with pytest.raises(GeometryError, match=str(bad)):
            codec.ppn_to_vppn_many(column)
        with pytest.raises(GeometryError, match=str(bad)):
            codec.vppn_to_ppn_many(column)


class TestFlatIndices:
    def test_chip_index_range(self, codec, geometry):
        chips = {codec.chip_index(ppn) for ppn in range(geometry.num_physical_pages)}
        assert chips == set(range(geometry.num_chips))

    def test_block_index_matches_ppn_division(self, codec, geometry):
        for ppn in range(0, geometry.num_physical_pages, 7):
            assert codec.block_index(ppn) == ppn // geometry.pages_per_block

    def test_block_ppns_contiguous(self, codec, geometry):
        ppns = list(codec.block_ppns(3))
        assert len(ppns) == geometry.pages_per_block
        assert ppns == list(range(ppns[0], ppns[0] + geometry.pages_per_block))

    def test_blocks_of_chip_partition(self, codec, geometry):
        all_blocks = []
        for chip in range(geometry.num_chips):
            all_blocks.extend(codec.blocks_of_chip(chip))
        assert sorted(all_blocks) == list(range(geometry.num_blocks))

    def test_chip_of_block_consistent_with_chip_index(self, codec, geometry):
        for block in range(geometry.num_blocks):
            assert codec.chip_of_block(block) == codec.chip_index(codec.block_base_ppn(block))

    def test_blocks_of_chip_rejects_bad_chip(self, codec, geometry):
        with pytest.raises(GeometryError):
            codec.blocks_of_chip(geometry.num_chips)

    def test_channel_index(self, codec, geometry):
        ppn = codec.encode_ppn(FlashAddress(1, 0, 0, 0, 0))
        assert codec.channel_index(ppn) == 1
