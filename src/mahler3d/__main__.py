"""``python -m mahler3d``: the same command line as the ``mahler3d`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
