"""Transient queuing delay analysis for end-to-end congestion control.

Closed-form peak-delay floors for capacity reductions, an exact fluid
queue simulator that validates them, a packet-level AIMD baseline that
cannot beat them, and reference scenarios, behind one CLI (``ccbound``).
"""

__version__ = "0.1.0"

from . import bounds, fluid, packetsim, scenarios, trace
from .bounds import *
from .fluid import *
from .packetsim import *
from .scenarios import *
from .trace import *

__all__ = [
    "__version__",
    *trace.__all__,
    *bounds.__all__,
    *fluid.__all__,
    *packetsim.__all__,
    *scenarios.__all__,
]
