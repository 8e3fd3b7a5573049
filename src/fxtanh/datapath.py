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

Everything is a pure function over immutable configs.  The arithmetic runs
on raw integer codes through a per-config plan.  Its kernel evaluates
untraced single calls from the LUTs, and exhaustive sweeps from subtree
tables that the tree's own combine fills; traced calls run the staged
functions below, which record every intermediate value.  Tests hold all
three bit-identical.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import repeat

from .fxnum import Fx, QFormat, RoundMode, _rescale, quantize
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


@dataclass(frozen=True)
class TanhConfig:
    """Complete pipeline configuration.

    ``mult_fmt.frac_bits`` is the number of fractional bits every internal
    multiplier retains.  ``internal_round`` governs the velocity-product
    tree (and other feed-forward multiplies); the Newton-Raphson loop always
    truncates, as iterative hardware on the critical path would.  The final
    rescale to ``output_fmt`` uses ``output_round``.
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
        if not self.output_fmt.signed or not self.output_fmt.fractional_only:
            raise ValueError(f"output format must be signed fractional-only, got {self.output_fmt}")
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

    Filled by the staged functions, which compute the same bits as the
    kernel that sweeps and untraced calls run; fields not touched by the
    active variant stay at their defaults.
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


@dataclass(frozen=True)
class PublishedRegisters:
    """Per-bit inverted-convention factor registers for the published variant.

    Entries share one unsigned format whose total width equals the LUT entry
    width; the integer bits needed by the largest factor are carved out of
    that budget, which is precisely the scaling cost the fractional-only
    redefinition removes.
    """

    bit_indices: tuple[int, ...]
    fmt: QFormat
    entries: tuple[Fx, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != len(self.bit_indices):
            raise ValueError("one entry per covered bit required")


@lru_cache(maxsize=None)
def _published_registers(input_fmt: QFormat, lut_fmt: QFormat, threshold: float) -> PublishedRegisters:
    frac_in = input_fmt.frac_bits
    bits = tuple(
        i for i in range(input_fmt.int_bits + frac_in)
        if 2.0 ** (i - frac_in) >= threshold
    )
    if not bits:
        raise ValueError("threshold leaves no register bits")
    max_factor = velocity_factor_original(2.0 ** (bits[-1] - frac_in))
    int_bits = max(1, math.floor(max_factor).bit_length())
    frac_bits = lut_fmt.width - int_bits
    if frac_bits < 1:
        raise ValueError(
            f"{lut_fmt.width}-bit entries cannot hold factors up to {max_factor:.1f}: "
            f"{int_bits} integer bits leave no fraction"
        )
    fmt = QFormat(False, int_bits, frac_bits)
    entries = tuple(
        quantize(velocity_factor_original(2.0 ** (i - frac_in)), fmt, RoundMode.NEAREST_EVEN)
        for i in bits
    )
    return PublishedRegisters(bits, fmt, entries)


def build_published_registers(cfg: TanhConfig) -> PublishedRegisters:
    """Registers for every magnitude bit whose weight reaches the threshold."""
    return _published_registers(cfg.input_fmt, cfg.lut_fmt, cfg.published_threshold)


@lru_cache(maxsize=None)
def build_luts_for(cfg: TanhConfig) -> tuple[VelocityLut, ...]:
    """The grouped LUTs matching a configuration (cached)."""
    return tuple(build_luts(cfg.input_fmt, cfg.grouping, cfg.lut_fmt))


def _half_even(shift: int, nearest: bool) -> tuple[int, int]:
    """``(bias, odd)`` such that ``(v + bias + (v >> shift & odd)) >> shift``
    equals ``_rescale(v, shift, nearest)`` for every ``shift >= 0``."""
    if nearest and shift > 0:
        return (1 << (shift - 1)) - 1, 1
    return 0, 0


def _tree_steps(n: int) -> tuple[tuple[int, int], ...]:
    """In-place merges ``(i, j)`` that reduce n values as the balanced tree does.

    Level by level, value i absorbs value i + stride; an odd value at the
    end of a level is carried up unchanged.
    """
    steps: list[tuple[int, int]] = []
    stride = 1
    while stride < n:
        steps += [(i, i + stride) for i in range(0, n - stride, 2 * stride)]
        stride *= 2
    return tuple(steps)


def _gather(order: list[int], by_bytes: bool):
    """Map m to its bits ``order[0], order[1], ...`` packed from bit 0 up.

    Consecutive bits are one shift.  Otherwise single calls move bit by
    bit, and sweeps read one byte-to-address table per byte of m.
    """
    first = order[0]
    if order == list(range(first, first + len(order))):
        return lambda m: m >> first
    if not by_bytes:
        moves = tuple(enumerate(order))

        def gather(m: int) -> int:
            g = 0
            for p, b in moves:
                g |= (m >> b & 1) << p
            return g

        return gather
    position = {b: p for p, b in enumerate(order)}
    width = max(order) + 1
    tables = []
    for lo in range(0, width, 8):
        table = [0] * (1 << min(8, width - lo))
        for v in range(1, len(table)):
            low = v & -v
            table[v] = table[v ^ low] | 1 << position[lo + low.bit_length() - 1]
        tables.append(table)

    def gather(m: int) -> int:
        g = 0
        for table in tables:
            g |= table[m & 255]
            m >>= 8
        return g

    return gather


class _Plan:
    """Raw-integer view of one (config, luts) pair, built once per pair.

    ``kernel`` maps an unsaturated magnitude code to its output magnitude
    code.  It reads leaves: ``(table, offset, mask)`` triples whose address
    is the field ``g >> offset & mask`` of the magnitude's bits gathered in
    leaf order.  Tree values are integers at ``node_frac`` fraction bits,
    the larger of the leaf and multiplier precisions, so a leaf passed up
    past a bypassed partner (None, the exact 1.0) stays exact until the one
    rescale at the top of the tree.
    """

    __slots__ = (
        "cfg", "luts", "mag_fmt", "mag_max", "sat_code", "out_max", "out_frac",
        "mf", "mf_mask", "tree_ne", "out_ne", "stages", "sub_ones",
        "groups", "tables", "lut_frac", "c0_code", "c1_code", "x_max",
        "reg_bits", "reg_codes", "reg_frac", "low_mask", "wide_max", "in_frac",
        "node_frac", "leaves", "order", "reduce", "kernel",
    )

    def __init__(self, cfg: TanhConfig, luts: tuple[VelocityLut, ...] | list[VelocityLut] | None):
        self.cfg = cfg
        self.luts = luts
        self.mag_fmt = cfg.input_fmt.magnitude_format()
        self.mag_max = self.mag_fmt.code_max
        self.out_frac = cfg.output_fmt.frac_bits
        self.out_max = cfg.output_fmt.code_max
        self.in_frac = cfg.input_fmt.frac_bits
        threshold = math.atanh(1.0 - 2.0 ** -self.out_frac)
        if threshold <= self.mag_fmt.max_value:
            self.sat_code = max(1, math.floor(threshold * (1 << self.in_frac)))
        else:
            self.sat_code = None
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
            expected = shuffle_map(
                self.mag_fmt.int_bits + self.in_frac,
                cfg.grouping.group_width,
                cfg.grouping.shuffle,
            )
            if len(luts) != len(expected):
                raise ValueError("LUT count does not match the grouping scheme")
            for lut, group in zip(luts, expected):
                if tuple(lut.bit_indices) != tuple(group):
                    raise ValueError(f"LUT bit indices {lut.bit_indices} do not match group {group}")
                if lut.entry_fmt != cfg.lut_fmt:
                    raise ValueError(f"LUT entry format {lut.entry_fmt} does not match {cfg.lut_fmt}")
            self.groups = tuple(tuple(g) for g in expected)
            self.tables = tuple(tuple(e.code for e in lut.entries) for lut in luts)
            self.lut_frac = cfg.lut_fmt.frac_bits
            self.node_frac = max(self.lut_frac, mf)
            lift = self.node_frac - self.lut_frac
            leaf_tables = [(None,) + tuple(c << lift for c in table[1:]) for table in self.tables]
            groups = self.groups
            self.reduce = self._reducer(self.mf_mask)
        else:
            regs = build_published_registers(cfg)
            self.reg_bits = regs.bit_indices
            self.reg_codes = tuple(e.code for e in regs.entries)
            self.reg_frac = regs.fmt.frac_bits
            self.low_mask = sum(
                1 << i for i in range(self.mag_fmt.int_bits + self.in_frac)
                if i not in regs.bit_indices
            )
            # wide accumulator: the clamped product tops out near 2**(b+1)
            self.wide_max = (1 << (self.out_frac + 2 + mf)) - 1
            self.node_frac = max(self.reg_frac, mf)
            lift = self.node_frac - self.reg_frac
            leaf_tables = [(1 << self.node_frac, c << lift) for c in self.reg_codes]
            groups = tuple((b,) for b in self.reg_bits)
            self.reduce = self._reducer(self.wide_max)
        self.order = [b for group in groups for b in group]
        offsets = [0]
        for group in groups:
            offsets.append(offsets[-1] + len(group))
        self.leaves = tuple(
            (table, offset, (1 << len(group)) - 1)
            for table, offset, group in zip(leaf_tables, offsets, groups)
        )
        self.kernel = self._kernel(self.leaves, _gather(self.order, by_bytes=False))

    def _reducer(self, clamp: int):
        """The product tree's combine, applied in place along a step list."""
        lift = self.node_frac - self.mf
        shift = self.node_frac + lift
        bias, odd = _half_even(shift, self.tree_ne)

        def reduce(vals: list, steps: tuple[tuple[int, int], ...]):
            for i, j in steps:
                b = vals[j]
                if b is None:
                    continue
                a = vals[i]
                if a is None:
                    vals[i] = b
                else:
                    p = a * b
                    p = (p + bias + (p >> shift & odd)) >> shift
                    vals[i] = (p if p < clamp else clamp) << lift
            return vals[0]

        return reduce

    def sweep_kernel(self):
        """A kernel equal to ``kernel`` that reads subtree tables instead of leaves.

        Each table stands for the bottom levels of the tree over 8 address
        bits: a pair of 4-bit LUTs, a quad of 2-bit LUTs, or 8 registers.
        Its entries come from the tree's own combine over every address.
        The leaves' concatenated address layout is also the tables' layout,
        so one gathered value addresses both.
        """
        per = 8 // max(mask.bit_length() for _, _, mask in self.leaves)
        nodes = []
        for c in range(0, len(self.leaves), per):
            chunk = self.leaves[c:c + per]
            base = chunk[0][1]
            width = sum(mask.bit_length() for _, _, mask in chunk)
            steps = _tree_steps(len(chunk))
            table = [
                self.reduce([t[a >> (o - base) & mask] for t, o, mask in chunk], steps)
                for a in range(1 << width)
            ]
            nodes.append((table, base, (1 << width) - 1))
        return self._kernel(tuple(nodes), _gather(self.order, by_bytes=True))

    def _kernel(self, leaves, gather):
        if self.cfg.variant is Variant.PUBLISHED:
            return self._published_kernel(leaves, gather)
        return self._optimized_kernel(leaves, gather)

    def _optimized_kernel(self, leaves, gather):
        reduce, steps = self.reduce, _tree_steps(len(leaves))
        mf, mf_mask, x_max = self.mf, self.mf_mask, self.x_max
        one, two = 1 << mf, 2 << mf
        top = self.node_frac - mf
        top_bias, top_odd = _half_even(top, self.tree_ne)
        sub_ones, stages, rounds = self.sub_ones, self.stages, range(self.stages)
        c0, c1, d_frac = self.c0_code, self.c1_code, mf + 1
        out_max, out_ne, scale = self.out_max, self.out_ne, 1 << self.out_frac
        out_shift = 2 * mf + 1 - self.out_frac
        up, out_shift = max(0, -out_shift), max(0, out_shift)
        out_bias, out_odd = _half_even(out_shift, out_ne)

        def kernel(m: int) -> int:
            g = gather(m)
            v = reduce([t[g >> o & mask] for t, o, mask in leaves], steps)
            if v is None:
                return 0
            f = (v + top_bias + (v >> top & top_odd)) >> top
            if f > mf_mask:
                f = mf_mask
            d = one + f
            if not stages:
                # reference row: real-valued division, one rounding at the output
                t = (one - f) / d * scale
                code = round(t) if out_ne else math.floor(t)
                return code if code < out_max else out_max
            n = f ^ mf_mask if sub_ones else min(one - f, mf_mask)
            x = c0 - (c1 * d >> d_frac)
            if x > x_max:
                x = x_max
            for _ in rounds:
                x = x * (two - (d * x >> d_frac)) >> mf
                if x > x_max:
                    x = x_max
            p = n * x << up
            code = (p + out_bias + (p >> out_shift & out_odd)) >> out_shift
            return code if code < out_max else out_max

        return kernel

    def _published_kernel(self, leaves, gather):
        reduce, steps = self.reduce, _tree_steps(len(leaves))
        mf, mf_mask, x_max, wide_max = self.mf, self.mf_mask, self.x_max, self.wide_max
        one, two = 1 << mf, 2 << mf
        top = self.node_frac - mf
        top_bias, top_odd = _half_even(top, self.tree_ne)
        stages, rounds = self.stages, range(self.stages)
        c0, c1 = self.c0_code, self.c1_code
        low_mask, in_frac = self.low_mask, self.in_frac
        sq_bias, sq_odd = _half_even(mf, self.tree_ne)
        corr_bias, corr_odd = _half_even(in_frac, self.tree_ne)
        out_max = self.out_max
        out_shift = mf - self.out_frac
        up, out_shift = max(0, -out_shift), max(0, out_shift)
        out_bias, out_odd = _half_even(out_shift, self.out_ne)

        def kernel(m: int) -> int:
            g = gather(m)
            v = reduce([t[g >> o & mask] for t, o, mask in leaves], steps)
            f = (v + top_bias + (v >> top & top_odd)) >> top
            if f > wide_max:
                f = wide_max
            n = f - one
            if n <= 0:
                t = 0
            elif not stages:
                t = min(math.floor(n / (f + one) * one), mf_mask)
            else:
                d = f + one
                d_frac = d.bit_length()         # normalize into [0.5, 1)
                x = c0 - (c1 * d >> d_frac)
                if x > x_max:
                    x = x_max
                for _ in rounds:
                    x = x * (two - (d * x >> d_frac)) >> mf
                    if x > x_max:
                        x = x_max
                t = min(n * x >> d_frac, mf_mask)
            sq = t * t
            sq = (sq + sq_bias + (sq >> mf & sq_odd)) >> mf
            c = (m & low_mask) * (one - sq)
            s = t + ((c + corr_bias + (c >> in_frac & corr_odd)) >> in_frac)
            s = (s if s < mf_mask else mf_mask) << up
            code = (s + out_bias + (s >> out_shift & out_odd)) >> out_shift
            return code if code < out_max else out_max

        return kernel


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


def _velocity_product_code(mag_code: int, plan: _Plan, trace: TanhTrace | None) -> int | None:
    """Product of the addressed LUT entries; None stands for the exact 1.0."""
    vals: list[tuple[int, int] | None] = []
    for group, table in zip(plan.groups, plan.tables):
        addr = 0
        for i, b in enumerate(group):
            addr |= ((mag_code >> b) & 1) << i
        vals.append(None if addr == 0 else (table[addr], plan.lut_frac))
        if trace is not None:
            trace.lut_addresses.append(addr)
            trace.lut_entries.append(
                None if addr == 0 else Fx(table[addr], plan.cfg.lut_fmt)
            )
    mf, ne = plan.mf, plan.tree_ne
    while len(vals) > 1:
        nxt: list[tuple[int, int] | None] = []
        for j in range(0, len(vals) - 1, 2):
            a, b2 = vals[j], vals[j + 1]
            if a is None:
                nxt.append(b2)
            elif b2 is None:
                nxt.append(a)
            else:
                ca, fa = a
                cb, fb = b2
                nxt.append((min(_rescale(ca * cb, fa + fb - mf, ne), plan.mf_mask), mf))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    if vals[0] is None:
        return None
    code, frac = vals[0]
    if frac != mf:
        code = min(_rescale(code, frac - mf, ne), plan.mf_mask)
    return code


def _nr_code(d_code: int, d_frac: int, stages: int, plan: _Plan, trace: TanhTrace | None) -> int:
    """Newton-Raphson reciprocal of d in [0.5, 1); iterates held in 1.mf bits.

    Every multiply in the loop truncates to mf fractional bits - the loop is
    the critical path, so low product bits are dropped rather than rounded.
    """
    mf = plan.mf
    x = min(plan.c0_code - _rescale(plan.c1_code * d_code, d_frac, False), plan.x_max)
    two = 2 << mf
    x_fmt = QFormat(False, 1, mf) if trace is not None else None
    if trace is not None:
        trace.nr_iterates.append(Fx(x, x_fmt))
    for _ in range(stages):
        p = _rescale(d_code * x, d_frac, False)
        x = min(_rescale(x * (two - p), mf, False), plan.x_max)
        if trace is not None:
            trace.nr_iterates.append(Fx(x, x_fmt))
    return x


def _final_code(f_code: int | None, plan: _Plan, trace: TanhTrace | None) -> int:
    """Output magnitude code from the velocity product (None = exact 1.0)."""
    if f_code is None:
        return 0
    mf = plan.mf
    one = 1 << mf
    if plan.sub_ones:
        n = f_code ^ plan.mf_mask
    else:
        n = min(one - f_code, plan.mf_mask)
    if trace is not None:
        trace.numerator = Fx(n, plan.cfg.mult_fmt)
        trace.denominator = Fx(one + f_code, QFormat(False, 0, mf + 1))
    if plan.stages == 0:
        # reference row: real-valued division, one rounding at the output
        t = (one - f_code) / (one + f_code)
        scaled = t * (1 << plan.out_frac)
        code = round(scaled) if plan.out_ne else math.floor(scaled)
        return min(code, plan.out_max)
    d_code = one + f_code                       # (1 + f)/2 exactly, frac mf+1
    x = _nr_code(d_code, mf + 1, plan.stages, plan, trace)
    # n * x * 2^-1, single rounding into the output format
    code = _rescale(n * x, 2 * mf + 1 - plan.out_frac, plan.out_ne)
    return min(code, plan.out_max)


def _published_code(mag_code: int, plan: _Plan, trace: TanhTrace | None) -> int:
    """Published-variant magnitude path: wide factor product plus correction."""
    mf = plan.mf
    one_reg = 1 << plan.reg_frac
    ne = plan.tree_ne
    vals = [
        (plan.reg_codes[i], plan.reg_frac) if (mag_code >> b) & 1 else (one_reg, plan.reg_frac)
        for i, b in enumerate(plan.reg_bits)
    ]
    if trace is not None:
        fmt = build_published_registers(plan.cfg).fmt
        for (code, _), b in zip(vals, plan.reg_bits):
            trace.lut_addresses.append((mag_code >> b) & 1)
            trace.lut_entries.append(Fx(code, fmt))
    while len(vals) > 1:
        nxt = []
        for j in range(0, len(vals) - 1, 2):
            (ca, fa), (cb, fb) = vals[j], vals[j + 1]
            nxt.append((min(_rescale(ca * cb, fa + fb - mf, ne), plan.wide_max), mf))
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    f_code, frac = vals[0]
    if frac != mf:
        f_code = min(_rescale(f_code, frac - mf, ne), plan.wide_max)
    if trace is not None:
        trace.factor = Fx(f_code, QFormat(False, plan.cfg.output_fmt.frac_bits + 2, mf))
    one = 1 << mf
    n = f_code - one
    if n <= 0:
        t_code = 0
    elif plan.stages == 0:
        t_code = min(math.floor(n / (f_code + one) * one), plan.mf_mask)
    else:
        d_code = f_code + one
        shift = d_code.bit_length() - mf        # normalize into [0.5, 1)
        x = _nr_code(d_code, mf + shift, plan.stages, plan, trace)
        t_code = min(_rescale(n * x, mf + shift, False), plan.mf_mask)
    if trace is not None:
        trace.pre_correction = Fx(t_code, plan.cfg.mult_fmt)
    r_code = mag_code & plan.low_mask
    if trace is not None:
        trace.residual = Fx(r_code, plan.mag_fmt)
    tsq = _rescale(t_code * t_code, mf, ne)
    one_minus_tsq = one - tsq                   # exact, one integer bit
    corr = _rescale(r_code * one_minus_tsq, plan.in_frac, ne)
    s_code = min(t_code + corr, plan.mf_mask)
    return min(_rescale(s_code, mf - plan.out_frac, plan.out_ne), plan.out_max)


def tanh_fx(x: Fx, cfg: TanhConfig, luts=None, trace: TanhTrace | None = None) -> Fx:
    """Evaluate the configured pipeline for one input code.

    Sign-splits the input, saturates the output exactly for magnitudes at or
    beyond the clamp threshold, runs the configured variant on the
    magnitude, and restores the sign.  ``luts`` must be the tables built
    from ``cfg`` (see ``build_luts_for``), or None to have them built; the
    published variant fetches its registers itself.
    """
    if x.fmt is not cfg.input_fmt and x.fmt != cfg.input_fmt:
        raise ValueError(f"input is {x.fmt} but the configuration expects {cfg.input_fmt}")
    plan = _prepare(cfg, luts)
    negative = x.code < 0
    mag_code = -x.code if negative else x.code
    if mag_code > plan.mag_max:        # most-negative code saturates
        mag_code = plan.mag_max
    if trace is None:
        if plan.sat_code is not None and mag_code >= plan.sat_code:
            code = plan.out_max
        else:
            code = plan.kernel(mag_code)
        return Fx(-code if negative else code, cfg.output_fmt)
    trace.input = x
    trace.negative = negative
    trace.magnitude = Fx(mag_code, plan.mag_fmt)
    if plan.sat_code is not None and mag_code >= plan.sat_code:
        trace.saturated = True
        trace.output = Fx(-plan.out_max if negative else plan.out_max, cfg.output_fmt)
        return trace.output
    if cfg.variant is Variant.PUBLISHED:
        code = _published_code(mag_code, plan, trace)
    else:
        f_code = _velocity_product_code(mag_code, plan, trace)
        trace.factor = None if f_code is None else Fx(f_code, cfg.mult_fmt)
        code = _final_code(f_code, plan, trace)
    trace.output = Fx(-code if negative else code, cfg.output_fmt)
    return trace.output


def magnitude_outputs(cfg: TanhConfig) -> array:
    """The output magnitude code of every input magnitude code, 0 to the largest.

    These are the codes ``tanh_fx`` returns before it restores the sign.
    The plan's kernel runs once per magnitude below the saturation code,
    through subtree tables built for this call; every magnitude at or above
    it maps to the output maximum.
    """
    plan = _prepare(cfg, None)
    count = plan.mag_max + 1
    live = count if plan.sat_code is None else min(plan.sat_code, count)
    codes = array("q", map(plan.sweep_kernel(), range(live)))
    codes.extend(repeat(plan.out_max, count - live))
    return codes


def velocity_product(magnitude: Fx, cfg: TanhConfig, luts, trace: TanhTrace | None = None) -> Fx | None:
    """Product of the per-group factors addressed by a clamped magnitude.

    Entries are combined pairwise through a balanced tree at multiplier
    precision; groups whose address is zero are bypassed and contribute an
    exact 1.0.  Returns None when every group is bypassed - the exact 1.0
    has no code in a fractional-only format.
    """
    if magnitude.fmt != cfg.input_fmt.magnitude_format():
        raise ValueError(f"magnitude must be {cfg.input_fmt.magnitude_format()}, got {magnitude.fmt}")
    plan = _prepare(cfg, luts)
    code = _velocity_product_code(magnitude.code, plan, trace)
    return None if code is None else Fx(code, cfg.mult_fmt)


def nr_reciprocal(d: Fx, stages: int, cfg: TanhConfig, trace: TanhTrace | None = None) -> Fx:
    """Reciprocal of d in [0.5, 1) after `stages` refinements of the seed.

    The caller is responsible for compensating any normalization shift it
    applied to bring d into range.
    """
    if d.fmt.signed:
        raise ValueError("denominator must be unsigned")
    frac = d.fmt.frac_bits
    if frac < 1 or not (1 << (frac - 1)) <= d.code < (1 << frac):
        raise ValueError(f"denominator {d.value} outside [0.5, 1)")
    if stages < 0:
        raise ValueError("stage count cannot be negative")
    plan = _prepare(cfg, None)
    code = _nr_code(d.code, frac, stages, plan, trace)
    return Fx(code, QFormat(False, 1, cfg.mult_fmt.frac_bits))


def final_stage(f: Fx | None, cfg: TanhConfig, trace: TanhTrace | None = None) -> Fx:
    """Map the velocity product to the output format: (1 - f)/(1 + f).

    ``None`` is the bypass representation of the exact 1.0 and maps to an
    exact zero.  The numerator uses the configured subtractor; the
    denominator is formed by bit concatenation and halved by a lossless
    shift of the binary point; the reciprocal's pre-shift is compensated in
    the single final rescale.
    """
    if f is not None and f.fmt != cfg.mult_fmt:
        raise ValueError(f"product must be in {cfg.mult_fmt}, got {f.fmt}")
    plan = _prepare(cfg, None)
    code = _final_code(None if f is None else f.code, plan, trace)
    return Fx(code, cfg.output_fmt)


def tanh_published(x: Fx, cfg: TanhConfig, registers: PublishedRegisters, trace: TanhTrace | None = None) -> Fx:
    """Evaluate the per-bit register variant with small-angle correction."""
    if registers != build_published_registers(cfg):
        raise ValueError("registers do not match the configuration")
    if cfg.variant is not Variant.PUBLISHED:
        cfg = replace(cfg, variant=Variant.PUBLISHED)
    return tanh_fx(x, cfg, None, trace)
