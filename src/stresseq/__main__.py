"""``python -m stresseq``: the command-line interface of :mod:`.harness`."""

import sys

from .harness import main

sys.exit(main())
