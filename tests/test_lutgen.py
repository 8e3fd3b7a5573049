"""Velocity-factor math, grouping, LUT construction, and ROM export tests."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fxtanh.fxnum import Fx, QFormat, RoundMode, quantize
from fxtanh.lutgen import (
    GroupingScheme,
    VelocityLut,
    build_luts,
    export_memh,
    parse_memh,
    shuffle_map,
    velocity_factor,
    velocity_factor_original,
    write_rom_files,
)

S3_12 = QFormat(True, 3, 12)
U0_18 = QFormat(False, 0, 18)

angles = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)


class TestVelocityFactor:
    def test_zero_angle(self):
        assert velocity_factor(0.0) == 1.0
        assert velocity_factor_original(0.0) == 1.0

    def test_smallest_input_bit(self):
        # e^(-2 * 2^-12), the factor of the lsb of a 12-fraction-bit input
        a = 2.0 ** -12
        assert velocity_factor(a) == pytest.approx(math.exp(-2 * a), abs=1e-12)
        assert velocity_factor(a) == pytest.approx(1 / velocity_factor_original(a), abs=1e-12)

    def test_unit_angle(self):
        assert velocity_factor(1.0) == pytest.approx(0.13533528, abs=1e-8)
        assert velocity_factor(1.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_original_range_endpoints(self):
        assert velocity_factor_original(2.0 ** -12) == pytest.approx(1.0004884, abs=1e-7)
        assert velocity_factor_original(2.0) == pytest.approx(54.59815, abs=1e-4)

    def test_rejects_negative_angles(self):
        with pytest.raises(ValueError):
            velocity_factor(-0.1)
        with pytest.raises(ValueError):
            velocity_factor_original(-0.1)

    @given(angles)
    def test_matches_exponential(self, a):
        assert abs(velocity_factor(a) - math.exp(-2 * a)) <= 1e-12

    @given(angles, angles)
    def test_multiplicative(self, a, b):
        assert abs(velocity_factor(a + b) - velocity_factor(a) * velocity_factor(b)) <= 1e-12

    @given(angles)
    def test_reciprocal_duality(self, a):
        assert abs(velocity_factor(a) * velocity_factor_original(a) - 1.0) <= 1e-12


class TestShuffleMap:
    def test_sixteen_bit_quad_shuffle_mixes_ends(self):
        groups = shuffle_map(16, 4, shuffle=True)
        assert groups[0] == (0, 7, 8, 15)
        assert groups[1] == (1, 6, 9, 14)
        assert len(groups) == 4

    def test_single_group(self):
        assert shuffle_map(4, 4, shuffle=True) == [(0, 1, 2, 3)]
        assert shuffle_map(4, 4, shuffle=False) == [(0, 1, 2, 3)]

    def test_consecutive_without_shuffle(self):
        groups = shuffle_map(16, 4, shuffle=False)
        assert groups[0] == (0, 1, 2, 3)
        assert groups[3] == (12, 13, 14, 15)

    def test_fifteen_bit_magnitude_has_partial_group(self):
        groups = shuffle_map(15, 4, shuffle=True)
        assert len(groups) == 4
        assert groups[0] == (0, 6, 7, 14)
        assert len(groups[3]) == 3

    def test_pair_shuffle_deals_from_both_ends(self):
        groups = shuffle_map(16, 2, shuffle=True)
        assert groups[0] == (0, 15)
        assert groups[7] == (7, 8)

    def test_rejects_bad_group_width(self):
        with pytest.raises(ValueError):
            shuffle_map(16, 3)
        with pytest.raises(ValueError):
            GroupingScheme(5, True)

    @given(
        st.integers(min_value=1, max_value=32),
        st.sampled_from([1, 2, 4]),
        st.booleans(),
    )
    def test_always_a_partition(self, b, k, shuffle):
        groups = shuffle_map(b, k, shuffle)
        flat = [i for g in groups for i in g]
        assert sorted(flat) == list(range(b))


class TestBuildLuts:
    def test_address_zero_is_all_ones(self):
        for lut in build_luts(S3_12, GroupingScheme(4, True), U0_18):
            assert lut.entries[0].code == U0_18.code_max

    def test_two_bit_group_products(self):
        luts = build_luts(S3_12, GroupingScheme(2, False), U0_18)
        lut0 = luts[0]
        assert lut0.bit_indices == (0, 1)
        both = velocity_factor(2.0 ** -12) * velocity_factor(2.0 ** -11)
        assert lut0.entries[0b11] == quantize(both, U0_18, RoundMode.NEAREST_EVEN)
        assert lut0.entries[0b01] == quantize(velocity_factor(2.0 ** -12), U0_18, RoundMode.NEAREST_EVEN)

    def test_weight_four_entry(self):
        luts = build_luts(S3_12, GroupingScheme(1, False), U0_18)
        lut14 = luts[14]        # bit 14 has weight 2^2
        assert lut14.bit_indices == (14,)
        assert lut14.entries[1].value == pytest.approx(3.3546e-4, abs=2e-6)
        assert lut14.entries[1] == quantize(velocity_factor(4.0), U0_18, RoundMode.NEAREST_EVEN)

    def test_entries_floored_at_one_ulp(self):
        # consecutive grouping puts the three largest weights together; the
        # all-set entry e^-14 is below half an ulp of u0.18 and must not
        # collapse to zero
        luts = build_luts(S3_12, GroupingScheme(4, False), U0_18)
        top = luts[3]
        assert top.bit_indices == (12, 13, 14)
        assert math.exp(-14) * (1 << 18) < 0.5
        assert top.entries[0b111].code == 1

    def test_every_entry_strictly_positive(self):
        for shuffle in (True, False):
            for width in (1, 2, 4):
                for lut in build_luts(S3_12, GroupingScheme(width, shuffle), U0_18):
                    assert all(e.code > 0 for e in lut.entries)

    def test_rejects_bad_formats(self):
        with pytest.raises(ValueError):
            build_luts(U0_18, GroupingScheme(4, True), U0_18)
        with pytest.raises(ValueError):
            build_luts(S3_12, GroupingScheme(4, True), S3_12)

    def test_lut_invariants_enforced(self):
        with pytest.raises(ValueError):
            VelocityLut((0,), U0_18, (Fx(1, U0_18), Fx(1, U0_18)))  # addr 0 not all-ones
        with pytest.raises(ValueError):
            VelocityLut((0, 1), U0_18, (Fx(U0_18.code_max, U0_18),))  # wrong count


class TestMemhExport:
    def test_all_ones_word(self):
        luts = build_luts(S3_12, GroupingScheme(4, True), U0_18)
        first_line = export_memh(luts[0]).splitlines()[0]
        assert first_line == "3ffff"

    def test_word_width_and_padding(self):
        lut = build_luts(QFormat(True, 1, 1), GroupingScheme(2, False), U0_18)[0]
        lines = export_memh(lut).splitlines()
        assert len(lines) == 4
        assert all(len(line) == 5 for line in lines)

    def test_round_trip(self):
        for lut in build_luts(S3_12, GroupingScheme(4, True), U0_18):
            codes = parse_memh(export_memh(lut))
            assert codes == [e.code for e in lut.entries]

    def test_deterministic_bytes(self):
        luts = build_luts(S3_12, GroupingScheme(4, True), U0_18)
        assert export_memh(luts[0]) == export_memh(luts[0])
        assert export_memh(luts[0]).endswith("\n")


class TestRomFiles:
    def test_writes_tables_and_manifest(self, tmp_path):
        luts = build_luts(S3_12, GroupingScheme(4, True), U0_18)
        paths = write_rom_files(list(luts), tmp_path)
        names = [p.name for p in paths]
        assert names == ["lut0.memh", "lut1.memh", "lut2.memh", "lut3.memh", "manifest.txt"]
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "0\t0,6,7,14\tu0.18"
        assert len(manifest) == 4

    def test_line_counts_match_group_sizes(self, tmp_path):
        luts = build_luts(S3_12, GroupingScheme(4, True), U0_18)
        write_rom_files(list(luts), tmp_path)
        counts = [
            len((tmp_path / f"lut{j}.memh").read_text().splitlines())
            for j in range(4)
        ]
        assert counts == [16, 16, 16, 8]
