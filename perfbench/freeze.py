"""Rewrite the frozen expectations in perfbench/golden from the current program.

    python3 perfbench/freeze.py

Run this only for a change that means to alter the model's output bits or
report text, and say why in the change's notes.  Files written:

* ``grid16.txt``, ``compare17.txt``: the byte-exact stdout of the command;
* ``digests.json``: per grid16 cell and compare17 variant, the sha256 of
  every exhaustive output code (``workloads.digest`` gives the encoding),
  and the digest of explore's block 0 at the default seed.
"""

from __future__ import annotations

import contextlib
import io
import json

import run


def main() -> None:
    fxtanh = run.load_program()
    import workloads

    digests = {}
    for name, argv, configs in (
        ("grid16", workloads.GRID16_ARGV, workloads.grid16_configs(fxtanh)),
        ("compare17", workloads.COMPARE17_ARGV, workloads.compare17_configs(fxtanh)),
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = fxtanh.cli.run(argv)
        if status != 0:
            raise SystemExit(f"{name}: command failed with status {status}")
        (workloads.GOLDEN / f"{name}.txt").write_text(out.getvalue())
        digests[name] = {label: workloads.digest(workloads.exhaustive_outputs(cfg)) for label, cfg in configs}
    tally = workloads.Tally()
    digests["explore"] = workloads.Explore(workloads.DEFAULT_SEED).default_digest(tally)
    if tally.mismatches:
        raise SystemExit("explore: " + "; ".join(tally.mismatches))
    (workloads.GOLDEN / "digests.json").write_text(json.dumps(digests, indent=2) + "\n")


if __name__ == "__main__":
    main()
