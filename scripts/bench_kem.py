#!/usr/bin/env python3
"""Wall-time benchmark of the three KEM phases plus a correctness sweep:
`hqc128 bench` under another name, e.g. `python scripts/bench_kem.py --iters 100`."""

import sys

from hqc128 import cli

if __name__ == "__main__":
    sys.exit(cli.main(["bench", *sys.argv[1:]]))
