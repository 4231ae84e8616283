"""``python -m conechoice``: the command-line front end of :mod:`conechoice.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
