"""Outage capacity of zero-forcing MIMO interference links.

N transmitter-receiver pairs share a band, each node carries M
antennas, and link n spatially multiplexes k_n streams behind a
zero-forcing receiver in the interference-limited regime.  The package
computes per-stream success probabilities P(SIR >= beta) and the outage
capacities they imply, three independent ways:

* closed forms (exact for any mix of interferer stream counts, with the
  moment-matched gamma fit kept as the paper's approximation),
* full-channel Monte Carlo over complex Gaussian matrices,
* a direct sampler of the known signal/interference marginals.

On top sit the decision tools: selfish best response per link, sum
capacity search over allocations, and the link-count thresholds past
which a single stream per link is the right choice.
"""

from . import analytic, core, montecarlo, optimizer
from .core import *
from .analytic import *
from .montecarlo import *
from .optimizer import *

__version__ = "0.1.0"

__all__ = core.__all__ + analytic.__all__ + montecarlo.__all__ + optimizer.__all__
