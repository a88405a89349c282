"""Run the command line with `python -m quivdef`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
