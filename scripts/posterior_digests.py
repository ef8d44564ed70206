"""Posterior and affinity digests of perfbench's ``label_cold`` corpora.

For each seed, variant and precision, builds the ``label_cold`` corpus
(``perfbench.context.make_inputs``), labels it with ``Goggles.label`` at
library defaults but for the precision, and prints one line:

    seed=1 variant=0 precision=float32 posterior=<sha256> affinity=<sha256>

A change that claims bit-identical labels is checked by a ``diff`` of a
run at each checkout:

    python scripts/posterior_digests.py --root ../parent > parent.txt
    python scripts/posterior_digests.py > change.txt
    diff parent.txt change.txt

``--root`` is the checkout whose ``src/`` and ``perfbench/`` are imported
(default: the one holding this script), so the parent checkout does not
need the script.  Values do not depend on ``n_jobs``, so the default
thread pool is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

PRECISIONS = ("float32", "float64")


def parse_ints(text: str) -> list[int]:
    """``"1-8"``, ``"0,2,5"`` or a mix of both, as a list of ints."""
    values: list[int] = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        values.extend(range(int(first), int(last or first) + 1))
    return values


def array_digest(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_ints, default=parse_ints("1-8"), help="e.g. 1-8 (default)")
    parser.add_argument("--variants", type=parse_ints, default=parse_ints("0-3"), help="e.g. 0-3 (default)")
    parser.add_argument("--precisions", nargs="+", choices=PRECISIONS, default=list(PRECISIONS))
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1], help="checkout to import"
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]

    from perfbench.context import make_inputs, posterior_digest
    from repro.core import Goggles, GogglesConfig
    from repro.engine import EngineConfig
    from repro.nn import VGG16, VGGConfig

    model = VGG16(VGGConfig())
    for seed in args.seeds:
        for variant in args.variants:
            inputs = make_inputs(seed, n_extra=0, variant=variant)
            for precision in args.precisions:
                config = GogglesConfig(n_classes=2, engine=EngineConfig(precision=precision))
                result = Goggles(config, model=model).label(inputs.corpus, inputs.dev_set())
                print(
                    f"seed={seed} variant={variant} precision={precision}"
                    f" posterior={posterior_digest(result.probabilistic_labels)}"
                    f" affinity={array_digest(result.affinity.values)}",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
