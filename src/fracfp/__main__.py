"""python -m fracfp: the convergence-study command line (harness.main)."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
