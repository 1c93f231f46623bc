"""``python -m divcascade``: the same command line as the ``divcascade`` script."""

import sys

from .cli import main

sys.exit(main())
