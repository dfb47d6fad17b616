"""`python -m ddsids <verb>` runs the ddsids command line."""

import sys

from .evalcli import main

if __name__ == "__main__":
    sys.exit(main())
