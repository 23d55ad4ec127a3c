"""``python -m lambdapack``: the command-line interface of :mod:`lambdapack.cli`."""

import sys

from .cli import main

sys.exit(main())
