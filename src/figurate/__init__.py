"""Exact arithmetic for m-gonal figurate numbers and log-behavior analysis.

Generates the m-gonal figurate sequences by several independent routes
(closed forms, first-order and second-order recurrences, term-by-term
progression sums), exposes their exact quotient sequences, classifies the
log-behavior of arbitrary positive sequences, and verifies quotient bounds,
quotient monotonicity, margin nonnegativity, and the Doslic log-concavity
criterion over finite windows. All values are arbitrary-precision integers
or rationals; nothing is ever rounded.
"""

from figurate import core, logbehavior, seqio, verify
from figurate.core import *  # noqa: F403
from figurate.logbehavior import *  # noqa: F403
from figurate.seqio import *  # noqa: F403
from figurate.verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*core.__all__, *logbehavior.__all__, *seqio.__all__, *verify.__all__]
