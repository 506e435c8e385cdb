"""BDD and ZDD decision-diagram backends (substrate for the Jedd runtime).

The paper's runtime sits on BuDDy/CUDD via JNI; this package is the
pure-Python equivalent.  :class:`BDDManager` is the primary backend;
:class:`ZDDManager` (zero-suppressed diagrams, section 4.1's in-progress
backend) duck-types the same operation set so the relational layer runs
on either without modification.
"""

from repro.bdd.fdd import FDDManager, FiniteDomain
from repro.bdd.manager import FALSE, TRUE, BDDError, BDDManager
from repro.bdd.mtbdd import MTBDDManager
from repro.bdd.ooc import OocBDDManager
from repro.bdd.zdd import ZDDManager

__all__ = [
    "BDDError",
    "BDDManager",
    "FALSE",
    "FDDManager",
    "FiniteDomain",
    "MTBDDManager",
    "OocBDDManager",
    "TRUE",
    "ZDDManager",
]
