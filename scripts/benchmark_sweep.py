#!/usr/bin/env python3
"""Timing sweep of the profiled estimator against the direct baseline.

Desk-scale defaults: dense correlation matrices up to 2^12 points and
tapered-sparse matrices up to 2^14.  Emits a raw CSV for external
plotting.
"""

import argparse
import sys

from etafit.cli import main as etafit_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="benchmark.csv")
    parser.add_argument("--sizes", default="256,1024,4096")
    parser.add_argument("--sparse-sizes", default="4096,16384")
    parser.add_argument("--timeout", type=float, default=300.0)
    args = parser.parse_args()

    argv = ["benchmark", "--sizes", args.sizes,
            "--sparse-sizes", args.sparse_sizes,
            "--timeout", str(args.timeout),
            "--out", args.out]
    print("+ etafit " + " ".join(argv))
    sys.exit(etafit_main(argv))


if __name__ == "__main__":
    main()
