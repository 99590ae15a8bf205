"""``python -m coiso``: the command line front end of ``coiso.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
