"""Velocity-factor math and grouped, bit-shuffled ROM construction.

The velocity factor of an angle ``a`` is ``f(a) = (1 - tanh a)/(1 + tanh a)``,
algebraically equal to ``exp(-2a)``.  Because ``f(a + b) = f(a) * f(b)``, the
factor of an n-bit magnitude is the product of the factors of its set bits,
which turns tanh evaluation into a handful of table reads and multiplies.

This module builds those tables.  Each lookup table covers a small group of
input magnitude bits; with shuffling enabled the groups mix high- and
low-weight bits so every stored product stays well scaled.  Tables can be
exported as plain-text ROM initialization files (one hex word per line).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .fxnum import Fx, QFormat, RoundMode, quantize

MANIFEST_NAME = "manifest.txt"

_GROUP_WIDTHS = (1, 2, 4)


def velocity_factor(a: float) -> float:
    """(1 - tanh a)/(1 + tanh a) for a >= 0; equals exp(-2a), in (0, 1]."""
    if a < 0:
        raise ValueError("velocity factor is defined for non-negative angles")
    t = math.tanh(a)
    return (1.0 - t) / (1.0 + t)


def velocity_factor_original(a: float) -> float:
    """(1 + tanh a)/(1 - tanh a): the inverted convention, in [1, inf)."""
    if a < 0:
        raise ValueError("velocity factor is defined for non-negative angles")
    t = math.tanh(a)
    if t >= 1.0:
        raise ValueError(f"tanh({a}) saturates in float; factor overflows")
    return (1.0 + t) / (1.0 - t)


@dataclass(frozen=True)
class GroupingScheme:
    """How magnitude bits are partitioned into LUT address groups."""

    group_width: int = 4
    shuffle: bool = True

    def __post_init__(self) -> None:
        if self.group_width not in _GROUP_WIDTHS:
            raise ValueError(f"group width {self.group_width} not in {_GROUP_WIDTHS}")


def shuffle_map(magnitude_bits: int, group_width: int, shuffle: bool = True) -> list[tuple[int, ...]]:
    """Partition bit indices 0..B-1 (0 = lsb) into address groups.

    With shuffling enabled, groups are dealt from both ends of each half of
    the index range so each group mixes small and large weights; group 0 of
    a 16-bit magnitude at width 4 is (0, 7, 8, 15).  Without shuffling the
    groups are consecutive ascending.  When the width does not divide B, a
    final partial group takes the leftover middle indices.
    """
    if magnitude_bits < 1:
        raise ValueError("need at least one magnitude bit")
    if group_width not in _GROUP_WIDTHS:
        raise ValueError(f"group width {group_width} not in {_GROUP_WIDTHS}")
    b = magnitude_bits
    k = group_width
    if k == 1:
        return [(i,) for i in range(b)]
    if not shuffle:
        groups = [tuple(range(j, min(j + k, b))) for j in range(0, b, k)]
        return groups
    n_full = b // k
    # one dealing segment for pair groups, two half-range segments for quads
    segments = [(0, b)] if k == 2 else [(0, b // 2), (b // 2, b)]
    groups: list[tuple[int, ...]] = []
    used: set[int] = set()
    for j in range(n_full):
        members: list[int] = []
        for lo, hi in segments:
            members.append(lo + j)
            members.append(hi - 1 - j)
        group = tuple(sorted(members))
        groups.append(group)
        used.update(group)
    leftovers = tuple(i for i in range(b) if i not in used)
    if leftovers:
        groups.append(leftovers)
    return groups


@dataclass(frozen=True)
class VelocityLut:
    """One grouped lookup table of quantized velocity factors.

    Address bit ``i`` selects input magnitude bit ``bit_indices[i]``; the
    entry at an address is the factor of the sum of the selected bit
    weights.  Address 0 (no bits selected) stands for the exact factor 1.0
    and is stored as the all-ones code; the datapath bypasses it rather than
    multiplying by the stored approximation.
    """

    bit_indices: tuple[int, ...]
    entry_fmt: QFormat
    entries: tuple[Fx, ...]

    def __post_init__(self) -> None:
        if self.entry_fmt.signed or not self.entry_fmt.fractional_only:
            raise ValueError(f"entry format must be unsigned fractional-only, got {self.entry_fmt}")
        if len(self.entries) != 1 << len(self.bit_indices):
            raise ValueError("entry count must be 2**(bits covered)")
        if self.entries[0].code != self.entry_fmt.code_max:
            raise ValueError("address 0 must hold the all-ones code standing for 1.0")
        if any(e.code <= 0 for e in self.entries):
            raise ValueError("entries must be strictly positive")


def build_luts(input_fmt: QFormat, scheme: GroupingScheme, entry_fmt: QFormat) -> list[VelocityLut]:
    """Build the grouped velocity-factor LUTs for a signed input format.

    Bit ``i`` of the magnitude weighs ``2**(i - frac_bits)``.  Entries are
    quantized nearest-even and floored at one ulp so every stored factor
    stays strictly positive (true factors are never zero; a zero entry would
    collapse the product).
    """
    if not input_fmt.signed:
        raise ValueError(f"input format must be signed, got {input_fmt}")
    if entry_fmt.signed or not entry_fmt.fractional_only:
        raise ValueError(f"entry format must be unsigned fractional-only, got {entry_fmt}")
    b = input_fmt.int_bits + input_fmt.frac_bits
    luts = []
    for group in shuffle_map(b, scheme.group_width, scheme.shuffle):
        entries = [Fx(entry_fmt.code_max, entry_fmt)]
        for addr in range(1, 1 << len(group)):
            angle = sum(
                2.0 ** (bit - input_fmt.frac_bits)
                for i, bit in enumerate(group)
                if (addr >> i) & 1
            )
            q = quantize(velocity_factor(angle), entry_fmt, RoundMode.NEAREST_EVEN)
            entries.append(q if q.code else Fx(1, entry_fmt))
        luts.append(VelocityLut(group, entry_fmt, tuple(entries)))
    return luts


def export_memh(lut: VelocityLut) -> str:
    """Render a LUT as ROM-init text: one lowercase hex word per line.

    Words are zero-padded to the entry width in ascending address order and
    the output is newline-terminated, so the bytes are deterministic.
    """
    digits = (lut.entry_fmt.width + 3) // 4
    return "".join(f"{e.code:0{digits}x}\n" for e in lut.entries)


def parse_memh(text: str) -> list[int]:
    """Parse ROM-init text back into entry codes (round-trip of export_memh)."""
    return [int(line, 16) for line in text.splitlines() if line.strip()]


def write_rom_files(luts: list[VelocityLut], directory: str | Path) -> list[Path]:
    """Write lut<j>.memh for each table plus a manifest describing them.

    The manifest has one line per LUT: index, comma-separated bit indices,
    entry format.  All file contents are rendered before anything is
    written, so validation errors never leave partial output.
    """
    directory = Path(directory)
    files = [(directory / f"lut{j}.memh", export_memh(lut)) for j, lut in enumerate(luts)]
    manifest = "".join(
        f"{j}\t{','.join(str(b) for b in lut.bit_indices)}\t{lut.entry_fmt}\n"
        for j, lut in enumerate(luts)
    )
    files.append((directory / MANIFEST_NAME, manifest))
    directory.mkdir(parents=True, exist_ok=True)
    for path, content in files:
        path.write_text(content)
    return [path for path, _ in files]
