"""Run the command line from a checkout: python -m cubicspan <command> ..."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
