"""``python -m eufinterp``: the command line of :mod:`eufinterp.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
