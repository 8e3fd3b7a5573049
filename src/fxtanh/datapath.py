"""Bit-accurate tanh pipelines.

Two datapath variants are modelled:

* ``OPTIMIZED`` - grouped velocity-factor LUTs feed a balanced multiplier
  tree producing ``f`` in (0, 1]; the final stage computes
  ``(1 - f)/(1 + f)`` with a Newton-Raphson reciprocal.  Because ``f`` is
  fractional-only, forming ``1 + f`` is bit concatenation and a single
  right shift normalizes the denominator into [0.5, 1).
* ``PUBLISHED`` - per-bit registers hold the inverted-convention factors
  (values >= 1) for weights at or above a threshold; tanh of the high part
  is ``(f - 1)/(f + 1)`` and the low-weight residual ``r`` is folded in
  through the small-angle correction ``t + r*(1 - t^2)``.

Both variants share the sign-split / compute / sign-restore flow, clamp the
magnitude at the point where tanh saturates the output format, and are exact
for zero input and odd-symmetric by construction.

Everything is a pure function over immutable configs.  The arithmetic is
stated once, on raw integer codes, in the parts of a per-config plan: the
product tree up to the root's two children, the root's combine, which gives
``f``, and the final stage from ``f`` to the output (for the published
variant, to ``t`` and then a correction per residual).  The product tree
exists once, as tables: the root's two children valued at every address,
each level of the tree an outer product of its children's tables, built
on a plan's first use.  Three byte tables, shared by every plan with the
same bit order, gather a magnitude's bits into that address.

A single call reads the root's children at its address, applies the
root's combine, then the final stage; a traced one also decodes its
``TanhTrace`` from the raw codes the parts record.

A sweep is split at ``f``.  Its tree part fills ``f`` for every gathered
address from the same two tables, a row at a time, then walks the
magnitudes in order: it keeps one ``f`` per run of equal values and
gives each magnitude a slot.  The tree part runs once for a family of
configurations that differ only past ``f`` (stage count, subtractor,
output rounding, seed).  The final stage then runs a column at a time
over chunks of runs, into one small table per configuration that the
slots index: each chunk's ``d`` and each Newton-Raphson iterate are
computed once for the configurations that share them.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import islice, product

from .fxnum import Fx, QFormat, RoundMode, quantize
from .lutgen import GroupingScheme, VelocityLut, build_luts, shuffle_map, velocity_factor_original


class Subtractor(enum.Enum):
    """How the final stage computes 1 - f."""

    ONES = "ones"    # bitwise complement; exactly one ulp below the true difference
    TWOS = "twos"    # exact two's-complement subtraction


class Variant(enum.Enum):
    OPTIMIZED = "optimized"
    PUBLISHED = "published"


@dataclass(frozen=True)
class NrSeed:
    """Linear initial guess ``x0 = c0 - c1*d`` for the reciprocal of d.

    The seed must keep x0 inside (1, 2] for every d in [0.5, 1) - the range
    of the true reciprocal - so the iterate registers never need a second
    integer bit.  The default (2.5, 1.5) is exact in any binary fixed-point
    format and needs no multiplier (1.5*d is a shift-and-add).
    """

    c0: float = 2.5
    c1: float = 1.5

    def __post_init__(self) -> None:
        if self.c1 <= 0:
            raise ValueError("seed slope must be positive")
        if self.c0 - self.c1 < 1.0:
            raise ValueError("seed leaves (1, 2]: x0 at d->1 falls to or below 1")
        if self.c0 - self.c1 / 2 > 2.0:
            raise ValueError("seed leaves (1, 2]: x0 at d=0.5 exceeds 2")


DEFAULT_NR_SEED = NrSeed()


def _check_output_bits(b: int) -> None:
    """Refuse b output fraction bits: none at all, or so many that 1 - 2**-b, the largest output, is no double below 1."""
    if b < 1:
        raise ValueError("need at least one fractional output bit")
    if b > 53:
        raise ValueError(
            f"{b} output fraction bits leave no saturation threshold: "
            f"1 - 2**-{b} rounds to 1.0 in a double (at most 53)"
        )


def clamp_threshold(b: int) -> float:
    """Input magnitude beyond which tanh saturates a b-fraction-bit output.

    Equals artanh(1 - 2**-b) = ln(2**(b+1) - 1)/2: past this point tanh
    lies above the largest output code, 1 - 2**-b, and its remaining gap to
    1 is below one output ulp.
    """
    _check_output_bits(b)
    return math.atanh(1.0 - 2.0 ** -b)


@dataclass(frozen=True)
class TanhConfig:
    """Complete pipeline configuration.

    ``mult_fmt.frac_bits`` is the number of fractional bits every internal
    multiplier retains.  ``internal_round`` governs the velocity-product
    tree (and other feed-forward multiplies); the Newton-Raphson loop always
    truncates, as iterative hardware on the critical path would.  The final
    rescale to ``output_fmt`` uses ``output_round``.

    Inputs carry 2 to 24 bits: at least one magnitude bit, and at most the
    width an exhaustive sweep takes.  Outputs carry 1 to 53 fraction bits.
    """

    input_fmt: QFormat
    output_fmt: QFormat
    lut_fmt: QFormat
    mult_fmt: QFormat
    grouping: GroupingScheme = GroupingScheme(4, True)
    nr_stages: int = 3
    subtractor: Subtractor = Subtractor.TWOS
    variant: Variant = Variant.OPTIMIZED
    published_threshold: float = 2.0 ** -7
    internal_round: RoundMode = RoundMode.NEAREST_EVEN
    output_round: RoundMode = RoundMode.NEAREST_EVEN
    nr_seed: NrSeed = DEFAULT_NR_SEED

    def __post_init__(self) -> None:
        if not self.input_fmt.signed:
            raise ValueError(f"input format must be signed, got {self.input_fmt}")
        if self.input_fmt.width < 2:
            raise ValueError("need at least one magnitude bit")
        if self.input_fmt.width > 24:
            # the widest input an exhaustive sweep takes; the tree's address tables cover it
            raise ValueError(f"{self.input_fmt.width}-bit input is too wide (at most 24 bits)")
        if not self.output_fmt.signed or not self.output_fmt.fractional_only:
            raise ValueError(f"output format must be signed fractional-only, got {self.output_fmt}")
        _check_output_bits(self.output_fmt.frac_bits)
        for name, fmt in (("lut", self.lut_fmt), ("mult", self.mult_fmt)):
            if fmt.signed or not fmt.fractional_only:
                raise ValueError(f"{name} format must be unsigned fractional-only, got {fmt}")
        if self.nr_stages < 0:
            raise ValueError("stage count cannot be negative")
        if self.published_threshold <= 0:
            raise ValueError("threshold must be positive")

    def describe(self) -> str:
        """One-line summary used in reports."""
        shuf = "on" if self.grouping.shuffle else "off"
        rounds = {RoundMode.TRUNCATE: "trunc", RoundMode.NEAREST_EVEN: "ne"}
        return (
            f"in={self.input_fmt} out={self.output_fmt} lut={self.lut_fmt} "
            f"mult={self.mult_fmt} group={self.grouping.group_width} shuffle={shuf} "
            f"nr={self.nr_stages} sub={self.subtractor.value} "
            f"round={rounds[self.internal_round]}/{rounds[self.output_round]} "
            f"variant={self.variant.value}"
        )


def reference_config(**overrides) -> TanhConfig:
    """The 16-bit baseline: s3.12 in, s.15 out, 18-bit LUTs, 16-bit multipliers."""
    cfg = TanhConfig(
        input_fmt=QFormat(True, 3, 12),
        output_fmt=QFormat(True, 0, 15),
        lut_fmt=QFormat(False, 0, 18),
        mult_fmt=QFormat(False, 0, 16),
    )
    return replace(cfg, **overrides) if overrides else cfg


@dataclass
class TanhTrace:
    """Intermediate values of one pipeline evaluation, for inspection.

    ``tanh_fx`` sets every field on each traced call, decoded from the raw
    codes its kernel records, so a trace shows the bits a sweep computes.
    Fields that the active variant or a saturated input never reaches hold
    their defaults.
    """

    input: Fx | None = None
    negative: bool = False
    magnitude: Fx | None = None
    saturated: bool = False
    lut_addresses: list[int] = field(default_factory=list)
    lut_entries: list[Fx | None] = field(default_factory=list)
    factor: Fx | None = None
    numerator: Fx | None = None
    denominator: Fx | None = None
    nr_iterates: list[Fx] = field(default_factory=list)
    pre_correction: Fx | None = None
    residual: Fx | None = None
    output: Fx | None = None


@lru_cache(maxsize=None)
def _published_registers(
    input_fmt: QFormat, lut_fmt: QFormat, threshold: float
) -> tuple[tuple[int, ...], QFormat, tuple[tuple[Fx, Fx], ...]] | str:
    """``(bits, fmt, entries)`` of the published variant's per-bit registers,
    or the reason they cannot be built.

    One register per magnitude bit whose weight reaches the threshold holds
    that bit's inverted-convention factor (>= 1).  Entries share one
    unsigned format whose total width equals the LUT entry width; the
    integer bits needed by the largest factor are carved out of that
    budget, which is precisely the scaling cost the fractional-only
    redefinition removes.  Each register reads as a one-bit table: address
    0 holds the exact 1.0, address 1 the factor.  A refusal is returned,
    not raised, so that the cache keeps it too.
    """
    frac_in = input_fmt.frac_bits
    bits = tuple(
        i for i in range(input_fmt.int_bits + frac_in)
        if 2.0 ** (i - frac_in) >= threshold
    )
    if not bits:
        return "threshold leaves no register bits"
    max_factor = velocity_factor_original(2.0 ** (bits[-1] - frac_in))
    int_bits = max(1, math.floor(max_factor).bit_length())
    frac_bits = lut_fmt.width - int_bits
    if frac_bits < 1:
        return (
            f"{lut_fmt.width}-bit entries cannot hold factors up to {max_factor:.1f}: "
            f"{int_bits} integer bits leave no fraction"
        )
    fmt = QFormat(False, int_bits, frac_bits)
    one = Fx(1 << frac_bits, fmt)
    entries = tuple(
        (one, quantize(velocity_factor_original(2.0 ** (i - frac_in)), fmt, RoundMode.NEAREST_EVEN))
        for i in bits
    )
    return bits, fmt, entries


@lru_cache(maxsize=None)
def build_luts_for(cfg: TanhConfig) -> tuple[VelocityLut, ...]:
    """The grouped LUTs matching a configuration (cached)."""
    return tuple(build_luts(cfg.input_fmt, cfg.grouping, cfg.lut_fmt))


@lru_cache(maxsize=None)
def _unsigned(int_bits: int, frac_bits: int) -> QFormat:
    """A shared unsigned format for trace fields; building one costs about 2 us."""
    return QFormat(False, int_bits, frac_bits)


def _half_even(shift: int, nearest: bool) -> tuple[int, int]:
    """``(bias, odd)`` such that ``(v + bias + (v >> shift & odd)) >> shift``
    equals ``v / 2**shift`` rounded exactly, half to even when `nearest` and
    floored otherwise (``round`` or ``math.floor`` of the ``Fraction``), for
    every ``shift >= 0``."""
    if nearest and shift > 0:
        return (1 << (shift - 1)) - 1, 1
    return 0, 0


_TYPECODES = tuple((1 << 8 * array(t).itemsize, t) for t in "BHILQ")


def _typecode(top: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds 0..top."""
    return next(t for limit, t in _TYPECODES if top < limit)


def _split(n: int) -> int:
    """Where the balanced tree splits n leaves: the largest power of two below n, or 0 for one leaf."""
    return 1 << (n - 1).bit_length() >> 1


@lru_cache(maxsize=None)
def _address_tables(order: tuple[int, ...]) -> tuple[list[int], list[int], list[int]]:
    """Byte tables ``t0, t1, t2`` that gather the bits ``order[0], order[1], ...`` of m from bit 0 up.

    ``t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16]`` is the gathered
    address of any magnitude m below 2**24; a bit outside the order (the
    published residual) weighs 0.
    """
    weights = [0] * 24
    for p, b in enumerate(order):
        weights[b] = 1 << p
    tables = []
    for lo in (0, 8, 16):
        table = [0] * 256
        for v in range(1, 256):
            low = v & -v
            table[v] = table[v ^ low] | weights[lo + low.bit_length() - 1]
        tables.append(table)
    return tuple(tables)


class _Plan:
    """Raw-integer view of one (config, luts) pair, built once per pair.

    The product tree reads leaves: ``(table, offset, mask)`` triples whose
    address is the field ``g >> offset & mask`` of the magnitude's bits
    gathered in leaf ``order``.  Tree values are integers at ``node_frac``
    fraction bits, the larger of the leaf and multiplier precisions, so a
    leaf passed up past a bypassed partner (None, the exact 1.0) stays exact
    until ``root`` rounds it to f.  ``root_children`` values the root's two
    children at every address, once, on first use; ``walk`` (a sweep's tree
    part) and ``kernel`` (a single call) both read those tables.  ``final``
    maps f to the output magnitude code, or for the published variant to
    ``t``, which ``correct`` folds with each residual; it serves single
    calls and traces.  A sweep runs the optimized final stage as
    ``column``, over a chunk of the runs of ``walk`` at a time, and the
    published one through ``table``, once per run of register rows.
    ``entries[i][a]`` is the ``Fx`` a trace shows for leaf i at address a.

    ``kernel`` maps an unsaturated magnitude to its output magnitude code;
    it is None until ``build_kernel`` makes it.  Given a list as its last
    argument, ``kernel`` and ``final`` also append the raw codes a trace
    shows (see ``fill_trace``).
    """

    __slots__ = (
        "cfg", "luts", "mag_fmt", "mag_max", "sat_code", "out_max", "out_frac",
        "mf", "mf_mask", "tree_ne", "out_ne", "stages", "sub_ones",
        "entries", "c0_code", "c1_code", "x_max", "low_mask", "wide_max", "in_frac", "live",
        "node_frac", "f_max", "leaves", "order", "outer", "root", "final", "column", "correct", "children", "kernel",
    )

    def __init__(self, cfg: TanhConfig, luts: tuple[VelocityLut, ...] | list[VelocityLut] | None):
        if cfg.variant is Variant.PUBLISHED:
            registers = _published_registers(cfg.input_fmt, cfg.lut_fmt, cfg.published_threshold)
            if isinstance(registers, str):
                raise ValueError(registers)
        self.cfg = cfg
        self.luts = luts
        self.mag_fmt = cfg.input_fmt.magnitude_format()
        self.mag_max = self.mag_fmt.code_max
        self.out_frac = cfg.output_fmt.frac_bits
        self.out_max = cfg.output_fmt.code_max
        self.in_frac = cfg.input_fmt.frac_bits
        threshold = clamp_threshold(self.out_frac)
        if threshold <= self.mag_fmt.max_value:
            self.sat_code = max(1, math.floor(threshold * (1 << self.in_frac)))
        else:
            self.sat_code = None
        # a sweep evaluates the magnitudes below live; the rest saturate
        self.live = self.mag_max + 1 if self.sat_code is None else min(self.sat_code, self.mag_max + 1)
        mf = cfg.mult_fmt.frac_bits
        self.mf = mf
        self.mf_mask = (1 << mf) - 1
        self.tree_ne = cfg.internal_round is RoundMode.NEAREST_EVEN
        self.out_ne = cfg.output_round is RoundMode.NEAREST_EVEN
        self.stages = cfg.nr_stages
        self.sub_ones = cfg.subtractor is Subtractor.ONES
        seed = cfg.nr_seed
        self.c0_code = quantize(seed.c0, QFormat(False, 2, mf), RoundMode.NEAREST_EVEN).code
        self.c1_code = quantize(seed.c1, QFormat(False, 2, mf), RoundMode.NEAREST_EVEN).code
        self.x_max = (1 << (mf + 1)) - 1
        if cfg.variant is Variant.OPTIMIZED:
            groups = shuffle_map(
                self.mag_fmt.int_bits + self.in_frac,
                cfg.grouping.group_width,
                cfg.grouping.shuffle,
            )
            if len(luts) != len(groups):
                raise ValueError("LUT count does not match the grouping scheme")
            for lut, group in zip(luts, groups):
                if tuple(lut.bit_indices) != tuple(group):
                    raise ValueError(f"LUT bit indices {lut.bit_indices} do not match group {group}")
                if lut.entry_fmt != cfg.lut_fmt:
                    raise ValueError(f"LUT entry format {lut.entry_fmt} does not match {cfg.lut_fmt}")
            self.entries = tuple((None, *lut.entries[1:]) for lut in luts)
            entry_frac = cfg.lut_fmt.frac_bits
            self.f_max = self.mf_mask
        else:
            bits, reg_fmt, self.entries = registers
            self.low_mask = (1 << bits[0]) - 1       # the registers are the high bits of m
            # wide accumulator: the clamped product tops out near 2**(b+1)
            self.wide_max = (1 << (self.out_frac + 2 + mf)) - 1
            entry_frac = reg_fmt.frac_bits
            groups = tuple((b,) for b in bits)
            self.f_max = self.wide_max
        self.node_frac = max(entry_frac, mf)
        lift = self.node_frac - entry_frac
        leaf_tables = [[None if e is None else e.code << lift for e in entries] for entries in self.entries]
        self.outer, self.root = self._reducer(self.f_max)
        self.order = tuple(b for group in groups for b in group)
        offsets = [0]
        for group in groups:
            offsets.append(offsets[-1] + len(group))
        self.leaves = tuple(
            (table, offset, (1 << len(group)) - 1)
            for table, offset, group in zip(leaf_tables, offsets, groups)
        )
        if cfg.variant is Variant.PUBLISHED:
            self.final, self.correct = self._published()
        else:
            (self.final, self.column), self.correct, self.low_mask = self._optimized(), None, 0
        self.children = self.kernel = None

    def _reducer(self, clamp: int):
        """The product tree's combine, as ``outer`` and ``root``.

        ``outer`` tabulates the combine over two sibling subtree tables, the
        left child's address in the low bits: it passes a bypassed value
        (None) up exactly and lifts each product back to ``node_frac``.
        ``root(p)`` rounds the product of the root's children to f.  A
        bypassed root child enters it as ``1 << node_frac``, whose product
        rounds the other child to the multiplier precision exactly as a
        separate rescale would.
        """
        lift = self.node_frac - self.mf
        shift = self.node_frac + lift
        bias, odd = _half_even(shift, self.tree_ne)

        def outer(left, right) -> list:
            return [
                a if b is None else b if a is None
                else (p if (p := ((c := a * b) + bias + (c >> shift & odd)) >> shift) < clamp else clamp) << lift
                for b in right for a in left
            ]

        def root(p: int) -> int:
            p = (p + bias + (p >> shift & odd)) >> shift
            return p if p < clamp else clamp

        return outer, root

    def _subtree(self, parts) -> list | tuple:
        """The table of the subtree over ``parts``, valued at every address.

        The parts split at ``_split``, and each level is the ``outer``
        product of its children's tables.  No parts stand for a lone leaf's
        bypassed partner.
        """
        if len(parts) < 2:
            return parts[0][0] if parts else (None,)
        split = _split(len(parts))
        return self.outer(self._subtree(parts[:split]), self._subtree(parts[split:]))

    def root_children(self) -> tuple[list[int], list[int]]:
        """The root's two children at every address, a bypass as the exact 1.0.

        Built on first use and kept.  The left child's address is the low
        bits of the gathered address, up to the right child's first leaf.
        """
        if self.children is None:
            split, unit = _split(len(self.leaves)), 1 << self.node_frac
            self.children = tuple(
                [unit if v is None else v for v in self._subtree(parts)]
                for parts in (self.leaves[:split], self.leaves[split:])
            )
        return self.children

    def build_kernel(self):
        """Make, keep and return ``kernel``: m -> output magnitude code.

        The kernel gathers m's address from the order's byte tables, reads
        the root's children there, applies ``root``, then ``final`` (and
        ``correct`` with m's residual, for the published variant).
        """
        t0, t1, t2 = _address_tables(self.order)
        left, right = self.root_children()
        low = self.leaves[_split(len(self.leaves))][1]     # the right child's first address bit
        mask = (1 << low) - 1
        root, final, correct, low_mask = self.root, self.final, self.correct, self.low_mask

        def kernel(m: int, rec: list[int] | None = None) -> int:
            g = t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16]
            if not g and correct is None:
                return 0                        # every LUT bypassed: the exact 1.0
            if rec is not None:
                rec.append(g)
            y = final(root(left[g & mask] * right[g >> low]), rec)
            if correct is None:
                return y
            r = m & low_mask
            if rec is not None:
                rec += y, r
            return correct(y, (r,))[0]

        self.kernel = kernel
        return kernel

    def walk(self) -> tuple[array | list, array | range]:
        """The tree part of a sweep: ``(fs, slots)`` over the magnitudes below ``live``.

        The root fills f for every gathered address from ``root_children``,
        one row per right-child value: the last outer product.
        The walk then reads f of every magnitude below ``live`` in order and
        keeps one f per run of equal values; the published variant keeps the
        f of every register row.  ``slots[m]`` is magnitude m's entry in the
        output table that ``_sweep_family`` builds, for any configuration
        that shares this one's tree.
        """
        left, right = self.root_children()
        root = self.root
        fs = array(_typecode(self.f_max)) if self.f_max < 1 << 64 else []
        for b in right:
            fs.extend(map(root, map(b.__mul__, left)))
        if self.correct is not None:
            # the registers hold the high bits of m, the residual its low bits,
            # and the table holds the outputs of every register row in order
            return fs[:-(-self.live // (1 << self.order[0]))], range(1, self.live + 1)
        runs, prev, k = fs[:0], None, 0
        slots = array(_typecode(self.live), [0])    # m = 0 bypasses every LUT
        add_run, add_slot = runs.append, slots.append
        tables = _address_tables(self.order)[:-(-self.mag_max.bit_length() // 8)]
        for f in map(fs.__getitem__, islice(map(sum, product(*reversed(tables))), 1, self.live)):
            if f != prev:
                prev, k = f, k + 1
                add_run(f)
            add_slot(k)
        return runs, slots

    def table(self, fs: array | list) -> array:
        """The published variant's output magnitude codes at the slots of ``walk``: 0, then those of ``fs``.

        ``final`` and ``correct`` run once per run of register rows with
        equal f.  When the largest magnitude saturates, the saturated code
        ends the table.  An optimized sweep runs ``column`` instead (see
        ``_sweep_family``).
        """
        codes = array(_typecode(self.out_max), [0])
        residuals, prev = range(1 << self.order[0]), None
        for f in fs:
            if f != prev:
                prev, row = f, self.correct(self.final(f), residuals)
            codes.extend(row)
        del codes[self.live + 1:]
        if self.live <= self.mag_max:
            codes.append(self.out_max)
        return codes

    def _optimized(self):
        mf, mf_mask, x_max = self.mf, self.mf_mask, self.x_max
        one, two = 1 << mf, 2 << mf
        sub_ones, stages, rounds = self.sub_ones, self.stages, range(self.stages)
        c0, c1, d_frac = self.c0_code, self.c1_code, mf + 1
        out_max, out_ne, scale = self.out_max, self.out_ne, 1 << self.out_frac
        out_shift = 2 * mf + 1 - self.out_frac
        up, out_shift = max(0, -out_shift), max(0, out_shift)
        out_bias, out_odd = _half_even(out_shift, out_ne)

        def final(f: int, rec: list[int] | None = None) -> int:
            n = f ^ mf_mask if sub_ones else one - f if f else mf_mask
            d = one + f                         # (1 + f)/2 exactly, frac mf+1
            if rec is not None:
                rec += f, n, d
            if not stages:
                # reference row: real-valued division, one rounding at the output
                t = (one - f) / d * scale
                code = round(t) if out_ne else math.floor(t)
                return code if code < out_max else out_max
            x = c0 - (c1 * d >> d_frac)
            if x > x_max:
                x = x_max
            if rec is not None:
                rec.append(x)
            for _ in rounds:
                x = x * (two - (d * x >> d_frac)) >> mf
                if x > x_max:
                    x = x_max
                if rec is not None:
                    rec.append(x)
            p = n * x << up
            code = (p + out_bias + (p >> out_shift & out_odd)) >> out_shift
            return code if code < out_max else out_max

        def column(fs: list[int], ds: list[int], iterates: dict) -> list[int]:
            """``final`` of each f in fs, whose ``d`` are ds, a column at a time.

            ``iterates[c0, c1, k]`` is the column of iterate k (0 the seed) from
            seed codes c0, c1; a column missing there is computed and put in,
            so configurations that share a seed and d compute each iterate once.
            """
            if not stages:
                ts = [(one - f) / d * scale for f, d in zip(fs, ds)]
                codes = map(round, ts) if out_ne else map(math.floor, ts)
                return [code if code < out_max else out_max for code in codes]
            xs = iterates.get((c0, c1, 0))
            if xs is None:
                xs = iterates[c0, c1, 0] = [x if (x := c0 - (c1 * d >> d_frac)) < x_max else x_max for d in ds]
            for k in range(1, stages + 1):
                prev, xs = xs, iterates.get((c0, c1, k))
                if xs is None:
                    xs = iterates[c0, c1, k] = [
                        x if (x := px * (two - (d * px >> d_frac)) >> mf) < x_max else x_max
                        for px, d in zip(prev, ds)
                    ]
            ns = [f ^ mf_mask for f in fs] if sub_ones else [one - f if f else mf_mask for f in fs]
            return [
                code if (code := (p + out_bias + (p >> out_shift & out_odd)) >> out_shift) < out_max else out_max
                for n, x in zip(ns, xs)
                for p in [n * x << up]
            ]

        return final, column

    def _published(self):
        mf, mf_mask, x_max = self.mf, self.mf_mask, self.x_max
        one, two = 1 << mf, 2 << mf
        stages, rounds = self.stages, range(self.stages)
        c0, c1 = self.c0_code, self.c1_code
        in_frac = self.in_frac
        sq_bias, sq_odd = _half_even(mf, self.tree_ne)
        corr_bias, corr_odd = _half_even(in_frac, self.tree_ne)
        out_max = self.out_max
        out_shift = mf - self.out_frac
        up, out_shift = max(0, -out_shift), max(0, out_shift)
        out_bias, out_odd = _half_even(out_shift, self.out_ne)

        def final(f: int, rec: list[int] | None = None) -> int:
            if rec is not None:
                rec.append(f)
            n = f - one
            if n <= 0:
                return 0
            if not stages:
                return min(math.floor(n / (f + one) * one), mf_mask)
            d = f + one
            d_frac = d.bit_length()             # normalize into [0.5, 1)
            x = c0 - (c1 * d >> d_frac)
            if x > x_max:
                x = x_max
            if rec is not None:
                rec.append(x)
            for _ in rounds:
                x = x * (two - (d * x >> d_frac)) >> mf
                if x > x_max:
                    x = x_max
                if rec is not None:
                    rec.append(x)
            return min(n * x >> d_frac, mf_mask)

        def correct(t: int, residuals) -> list[int]:
            """Output codes of ``t + r*(1 - t^2)`` for each residual r."""
            sq = t * t
            k = one - ((sq + sq_bias + (sq >> mf & sq_odd)) >> mf)
            return [
                y if (y := (s + out_bias + (s >> out_shift & out_odd)) >> out_shift) < out_max else out_max
                for c in map(k.__mul__, residuals)
                for s in [t + ((c + corr_bias + (c >> in_frac & corr_odd)) >> in_frac)]
                for s in [(s if s < mf_mask else mf_mask) << up]
            ]

        return final, correct

    def fill_trace(self, trace: TanhTrace, rec: list[int]) -> None:
        """Set the stage fields of ``trace`` from the codes a kernel call put in ``rec``.

        The optimized kernel records ``g, f, n, d`` and each iterate, or
        nothing when every address is 0 and the product is the exact 1.0;
        the published kernel records ``g, f``, each iterate, ``t`` and the
        residual.
        """
        cfg, mf = self.cfg, self.mf
        g = rec[0] if rec else 0
        addresses = trace.lut_addresses = [g >> offset & mask for _, offset, mask in self.leaves]
        trace.lut_entries = [entries[a] for entries, a in zip(self.entries, addresses)]
        if cfg.variant is Variant.PUBLISHED:
            _, f, *iterates, t, r = rec
            trace.factor = Fx(f, _unsigned(self.out_frac + 2, mf))
            trace.pre_correction = Fx(t, cfg.mult_fmt)
            trace.residual = Fx(r, self.mag_fmt)
        else:
            if not rec:
                return
            _, f, n, d, *iterates = rec
            trace.factor = Fx(f, cfg.mult_fmt)
            trace.numerator = Fx(n, cfg.mult_fmt)
            trace.denominator = Fx(d, _unsigned(0, mf + 1))
        trace.nr_iterates = [Fx(x, _unsigned(1, mf)) for x in iterates]


_plan_cache: tuple | None = None


def _prepare(cfg: TanhConfig, luts) -> _Plan:
    """Plan lookup with a single-slot identity cache (hot in runs of single calls).

    ``luts`` None stands for ``build_luts_for(cfg)``.  The slot remembers
    whether its plan was built from those tables, so a hit costs no hash
    of the configuration.
    """
    global _plan_cache
    cached = _plan_cache
    if cached is not None and cached[0] is cfg and (cached[1] is luts or (luts is None and cached[2])):
        return cached[3]
    default = build_luts_for(cfg) if cfg.variant is Variant.OPTIMIZED else None
    plan = _Plan(cfg, default if luts is None else luts)
    _plan_cache = (cfg, plan.luts, plan.luts is default, plan)
    return plan


def tanh_fx(x: Fx, cfg: TanhConfig, luts=None, trace: TanhTrace | None = None) -> Fx:
    """Evaluate the configured pipeline for one input code.

    Sign-splits the input, saturates the output exactly for magnitudes at or
    beyond the clamp threshold, runs the configured variant on the
    magnitude, and restores the sign.  ``luts`` must be the tables built
    from ``cfg`` (see ``build_luts_for``), or None to have them built; the
    published variant builds its registers itself.  A ``trace`` gets every
    field set from this call, whatever it held before.
    """
    if x.fmt is not cfg.input_fmt and x.fmt != cfg.input_fmt:
        raise ValueError(f"input is {x.fmt} but the configuration expects {cfg.input_fmt}")
    plan = _prepare(cfg, luts)
    negative = x.code < 0
    mag_code = -x.code if negative else x.code
    if mag_code > plan.mag_max:        # most-negative code saturates
        mag_code = plan.mag_max
    saturated = plan.sat_code is not None and mag_code >= plan.sat_code
    rec = None if trace is None else []
    code = plan.out_max if saturated else (plan.kernel or plan.build_kernel())(mag_code, rec)
    y = Fx(-code if negative else code, cfg.output_fmt)
    if trace is not None:
        # re-initialising resets the fields this call does not reach
        trace.__init__(x, negative, Fx(mag_code, plan.mag_fmt), saturated, output=y)
        if not saturated:
            plan.fill_trace(trace, rec)
    return y


# runs per column of an optimized sweep's final stage: whole-sweep columns
# raise the peak memory of a wide sweep by megabytes
_CHUNK = 1 << 10


def _sweep_family(cfgs: list[TanhConfig]) -> tuple[array | range, list[array]]:
    """One exhaustive sweep of configurations that differ only past f.

    They may differ in stage count, subtractor, output rounding and seed.
    The tree part (see ``_Plan.walk``) runs once, for the first
    configuration.  The optimized final stage runs as ``_Plan.column`` on
    chunks of ``_CHUNK`` runs of equal f: each chunk's ``d`` column is
    computed once, and each seed and iterate column once per seed, for
    every configuration of the family.  Returns ``(slots, tables)``:
    ``tables[i][slots[m]]`` is the output magnitude code of magnitude code
    m under ``cfgs[i]``, and every magnitude from ``len(slots)`` to the
    largest reads ``tables[i][-1]``.
    """
    plan = _prepare(cfgs[0], None)
    past_f = dict(nr_stages=0, subtractor=Subtractor.TWOS, output_round=RoundMode.NEAREST_EVEN, nr_seed=DEFAULT_NR_SEED)
    if any(replace(cfg, **past_f) != replace(plan.cfg, **past_f) for cfg in cfgs[1:]):
        raise ValueError("the configurations of one sweep may differ only past f")
    fs, slots = plan.walk()
    plans = [plan if cfg is plan.cfg else _Plan(cfg, plan.luts) for cfg in cfgs]
    if plan.correct is not None:
        return slots, [p.table(fs) for p in plans]
    tables = [array(_typecode(plan.out_max), [0]) for _ in plans]
    one = 1 << plan.mf
    for i in range(0, len(fs), _CHUNK):
        chunk = list(fs[i:i + _CHUNK])
        ds, iterates = [one + f for f in chunk], {}     # d = (1 + f)/2, as ``final`` forms it
        for p, codes in zip(plans, tables):
            codes.extend(p.column(chunk, ds, iterates))
    if plan.live <= plan.mag_max:
        for codes in tables:
            codes.append(plan.out_max)
    return slots, tables


def magnitude_outputs(cfg: TanhConfig) -> array:
    """The output magnitude code of every input magnitude code, 0 to the largest.

    These are the codes ``tanh_fx`` returns before it restores the sign,
    read from a sweep of ``cfg`` alone (see ``_sweep_family``).
    """
    slots, (table,) = _sweep_family([cfg])
    codes = array("q", map(table.__getitem__, slots))
    codes += array("q", table[-1:]) * (cfg.input_fmt.code_max + 1 - len(slots))
    return codes
