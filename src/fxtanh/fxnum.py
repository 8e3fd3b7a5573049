"""Parametric fixed-point formats, immutable values and quantization.

Every quantity in the datapath is an integer code paired with a ``QFormat``
describing its layout (sign bit, integer bits, fractional bits).  The
datapath's arithmetic runs on raw integer codes (see ``datapath``); this
module supplies the formats, the ``Fx`` values at its boundary and
``quantize``, which saturates instead of wrapping: a hardware datapath that
wraps on overflow would produce catastrophic errors, so saturation is the
only overflow behaviour modelled.

Rounding is explicit everywhere.  ``TRUNCATE`` is two's-complement
truncation (drop low bits, i.e. floor), the behaviour of a hardware
multiplier that simply discards low product bits.  ``NEAREST_EVEN`` is
round-to-nearest with ties to even.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field


class RoundMode(enum.Enum):
    """Closed set of rounding behaviours used by the datapath."""

    TRUNCATE = "truncate"
    NEAREST_EVEN = "nearest-even"


@dataclass(frozen=True)
class QFormat:
    """Fixed-point layout: optional sign bit, integer bits, fractional bits.

    A code ``c`` in this format represents the value ``c * 2**-frac_bits``.
    Signed formats store codes in two's complement, so the representable
    value range is ``[-2**int_bits, 2**int_bits - 2**-frac_bits]``; unsigned
    formats cover ``[0, 2**int_bits - 2**-frac_bits]``.
    """

    signed: bool
    int_bits: int
    frac_bits: int
    width: int = field(init=False, repr=False, compare=False)
    code_min: int = field(init=False, repr=False, compare=False)
    code_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.int_bits < 0 or self.frac_bits < 0:
            raise ValueError(f"negative bit counts in {self.spec()}")
        width = (1 if self.signed else 0) + self.int_bits + self.frac_bits
        if width < 1:
            raise ValueError("format must be at least one bit wide")
        magnitude = 1 << (self.int_bits + self.frac_bits)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "code_min", -magnitude if self.signed else 0)
        object.__setattr__(self, "code_max", magnitude - 1)

    @property
    def ulp(self) -> float:
        """Weight of the least significant bit."""
        return 2.0 ** -self.frac_bits

    @property
    def min_value(self) -> float:
        return self.code_min * self.ulp

    @property
    def max_value(self) -> float:
        return self.code_max * self.ulp

    @property
    def fractional_only(self) -> bool:
        return self.int_bits == 0

    def magnitude_format(self) -> "QFormat":
        """Unsigned counterpart holding magnitudes of this signed format."""
        if not self.signed:
            raise ValueError(f"{self.spec()} is already unsigned")
        return QFormat(False, self.int_bits, self.frac_bits)

    def spec(self) -> str:
        """Format string in the conventional notation, e.g. s3.12 or u0.18."""
        if self.signed:
            ib = str(self.int_bits) if self.int_bits else ""
            return f"s{ib}.{self.frac_bits}"
        return f"u{self.int_bits}.{self.frac_bits}"

    def __str__(self) -> str:
        return self.spec()


class Fx:
    """A fixed-point value: raw two's-complement integer code plus format.

    Immutable.  Two values are equal only if both the format and the code
    match; the same real value in two formats is deliberately unequal.
    """

    __slots__ = ("code", "fmt")

    def __init__(self, code: int, fmt: QFormat):
        if not fmt.code_min <= code <= fmt.code_max:
            raise ValueError(f"code {code} does not fit {fmt}")
        _set_code(self, code)
        _set_fmt(self, fmt)

    def __setattr__(self, name, value):
        raise AttributeError("Fx is immutable")

    @property
    def value(self) -> float:
        return self.code * self.fmt.ulp

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Fx)
            and self.code == other.code
            and self.fmt == other.fmt
        )

    def __hash__(self) -> int:
        return hash((self.code, self.fmt))

    def __repr__(self) -> str:
        return f"Fx({self.code}, {self.fmt}, value={self.value!r})"


# the slots' own setters: half the cost of object.__setattr__
_set_code, _set_fmt = Fx.code.__set__, Fx.fmt.__set__


def _saturate(code: int, fmt: QFormat) -> int:
    if code > fmt.code_max:
        return fmt.code_max
    if code < fmt.code_min:
        return fmt.code_min
    return code


def quantize(x: float, fmt: QFormat, mode: RoundMode) -> Fx:
    """Quantize a real value to the nearest representable code under `mode`.

    Out-of-range values saturate to the format's minimum or maximum; this
    never raises for finite inputs.  The scaling ``x * 2**frac_bits`` is a
    power-of-two float multiply and therefore exact, so the rounding decision
    is made on the true scaled value.
    """
    if math.isnan(x):
        raise ValueError("cannot quantize nan")
    if math.isinf(x):
        return Fx(fmt.code_max if x > 0 else fmt.code_min, fmt)
    scaled = x * (1 << fmt.frac_bits)
    if mode is RoundMode.TRUNCATE:
        code = math.floor(scaled)
    else:
        code = round(scaled)
    return Fx(_saturate(code, fmt), fmt)
