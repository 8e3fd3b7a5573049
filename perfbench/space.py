"""Seeded configuration generator for the explore workload.

A block is a full factorial over the fields that decide a configuration's
cost and whether the program accepts it -- input integer bits x input
fraction bits x variant, 48 cells -- in seeded order.  Every other field
cycles through its levels in a seeded order of its own, so each block has the
same mix of values and only their pairing is random.  A pass is the first
``BLOCKS_PER_PASS`` blocks of the seed, the same configurations in every pass
of a run.  Which published configurations the program refuses depends on
the random pairing of LUT width and threshold, and a refused configuration
skips its sweep; four blocks keep the pass's work within a few percent
across seeds.  The refused configurations stay in the data.

Only the standard library is imported here: the set-up probe loads this
module inside the interval it times.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

INT_BITS = (1, 2, 3, 4)
FRAC_BITS = (4, 5, 6, 7, 8, 9)
VARIANTS = ("optimized", "published")
CONFIGS_PER_BLOCK = len(INT_BITS) * len(FRAC_BITS) * len(VARIANTS)
BLOCKS_PER_PASS = 4


@dataclass(frozen=True)
class Spec:
    """One drawn configuration, in plain values the CLI also accepts."""

    int_bits: int
    frac_bits: int
    out_bits: int
    lut_bits: int
    mult_bits: int
    group: int
    shuffle: bool
    nr_stages: int
    subtractor: str
    internal_round: str
    output_round: str
    variant: str
    threshold_exp: int
    call_seed: int

    def config(self, fx):
        """The program's configuration object; may raise ValueError (a refusal)."""
        rounds = {"truncate": fx.RoundMode.TRUNCATE, "nearest-even": fx.RoundMode.NEAREST_EVEN}
        return fx.TanhConfig(
            input_fmt=fx.QFormat(True, self.int_bits, self.frac_bits),
            output_fmt=fx.QFormat(True, 0, self.out_bits),
            lut_fmt=fx.QFormat(False, 0, self.lut_bits),
            mult_fmt=fx.QFormat(False, 0, self.mult_bits),
            grouping=fx.GroupingScheme(self.group, self.shuffle),
            nr_stages=self.nr_stages,
            subtractor=fx.Subtractor(self.subtractor),
            variant=fx.Variant(self.variant),
            published_threshold=2.0 ** -self.threshold_exp,
            internal_round=rounds[self.internal_round],
            output_round=rounds[self.output_round],
        )


def _balanced(rng: random.Random, levels, n: int = CONFIGS_PER_BLOCK) -> list:
    """n values cycling through ``levels``, in seeded order."""
    values = [levels[i % len(levels)] for i in range(n)]
    rng.shuffle(values)
    return values


def pass_specs(seed: int) -> list[Spec]:
    """The configurations of every pass for a workload seed."""
    return [spec for block in range(BLOCKS_PER_PASS) for spec in block_specs(seed, block)]


def block_specs(seed: int, block: int) -> list[Spec]:
    """The configurations of one block for a workload seed."""
    rng = random.Random(f"explore:{seed}:{block}")
    cells = [(i, f, v) for i in INT_BITS for f in FRAC_BITS for v in VARIANTS]
    rng.shuffle(cells)
    columns = zip(
        _balanced(rng, range(6, 16)),                  # output fraction bits
        _balanced(rng, range(4)),                      # LUT bits above the output
        _balanced(rng, range(3)),                      # multiplier bits above the output
        _balanced(rng, (1, 2, 4)),
        _balanced(rng, (False, True)),
        _balanced(rng, (0, 2, 3)),
        _balanced(rng, ("ones", "twos")),
        _balanced(rng, ("truncate", "nearest-even")),
        _balanced(rng, ("truncate", "nearest-even")),
        _balanced(rng, range(3, 9)),
    )
    return [
        Spec(int_bits, frac_bits, out, out + lut, out + mult, group, shuffle, nr, sub, internal, output,
             variant, threshold_exp, rng.getrandbits(32))
        for (int_bits, frac_bits, variant), (out, lut, mult, group, shuffle, nr, sub, internal, output, threshold_exp)
        in zip(cells, columns)
    ]
