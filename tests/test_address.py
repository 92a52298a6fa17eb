"""Tests for the PPN/VPPN address codec (:mod:`repro.nand.address`)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.nand.address import AddressCodec, FlashAddress
from repro.nand.errors import GeometryError
from repro.nand.geometry import SSDGeometry


#: PPN fields, most significant first.
FIELDS = ("channel", "chip", "plane", "block", "page")


def _limits(geometry: SSDGeometry) -> dict[str, int]:
    return {
        "channel": geometry.channels,
        "chip": geometry.chips_per_channel,
        "plane": geometry.planes_per_chip,
        "block": geometry.blocks_per_plane,
        "page": geometry.pages_per_block,
    }


def _all_addresses(geometry: SSDGeometry):
    limits = _limits(geometry)
    for fields in itertools.product(*(range(limits[name]) for name in FIELDS)):
        yield FlashAddress(*fields)


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

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("side", ["negative", "limit"])
    def test_encode_names_the_out_of_range_field(self, codec, geometry, field, side):
        bad = -1 if side == "negative" else _limits(geometry)[field]
        address = FlashAddress(**{**dict.fromkeys(FIELDS, 0), field: bad})
        with pytest.raises(GeometryError, match=f"{field} {bad} out of range"):
            codec.encode_ppn(address)

    @pytest.mark.parametrize("field", FIELDS)
    def test_field_step_spans_every_less_significant_field(self, codec, geometry, field):
        """Figure 11's layout: one step in a field skips all the fields below it."""
        limits = _limits(geometry)
        below = FIELDS[FIELDS.index(field) + 1 :]
        span = int(np.prod([limits[name] for name in below], dtype=np.int64))
        one = FlashAddress(**{**dict.fromkeys(FIELDS, 0), field: 1})
        assert codec.encode_ppn(one) == span

    def test_encoding_is_a_bijection_onto_the_page_range(self, codec, geometry):
        ppns = [codec.encode_ppn(address) for address in _all_addresses(geometry)]
        assert sorted(ppns) == list(range(geometry.num_physical_pages))


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

    def test_chip_of_block_consistent_with_chip_index(self, codec, geometry):
        for block in range(geometry.num_blocks):
            assert codec.chip_of_block(block) == codec.chip_index(codec.block_base_ppn(block))

    def test_chip_index_counts_chips_across_channels(self, codec, geometry):
        assert codec.chip_index(codec.encode_ppn(FlashAddress(0, 2, 1, 3, 7))) == 2
        first_of_channel_1 = codec.encode_ppn(FlashAddress(1, 0, 0, 0, 0))
        assert codec.chip_index(first_of_channel_1) == geometry.chips_per_channel

    def test_block_of_is_the_ppn_over_pages_per_block(self, codec, geometry):
        for address in _all_addresses(geometry):
            assert codec.block_of(address) == codec.encode_ppn(address) // geometry.pages_per_block

    def test_block_base_ppns_are_one_block_apart(self, codec, geometry):
        bases = [codec.block_base_ppn(block) for block in range(geometry.num_blocks)]
        assert bases == list(range(0, geometry.num_physical_pages, geometry.pages_per_block))

    def test_each_chip_owns_one_contiguous_run_of_blocks(self, codec, geometry):
        chips = [codec.chip_of_block(block) for block in range(geometry.num_blocks)]
        assert chips == sorted(chips)
        per_chip = geometry.num_blocks // geometry.num_chips
        assert all(chips.count(chip) == per_chip for chip in range(geometry.num_chips))

    @pytest.mark.parametrize("side", ["negative", "limit"])
    def test_block_base_ppn_rejects_blocks_outside_the_device(self, codec, geometry, side):
        with pytest.raises(GeometryError):
            codec.block_base_ppn(-1 if side == "negative" else geometry.num_blocks)
