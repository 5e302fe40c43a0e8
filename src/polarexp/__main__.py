"""`python -m polarexp`: the command-line tool of `polarexp.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
