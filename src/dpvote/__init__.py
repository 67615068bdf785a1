"""Differentially private vote aggregation.

Teacher ensembles answer label queries through randomized argmax mechanisms;
boosting the winning bin by a large constant makes the argmax immutable under
noise, so large perturbations cost almost nothing in label quality.  The
package provides the vote/boost core, sensitivity analysis with exhaustive
oracles, seeded noise, the aggregation mechanisms, a moments-accountant
ledger, ensemble simulation/ingestion, and an experiment pipeline with a CLI.
"""

# the public API is the union of the modules' __all__ lists
from .accountant import *
from .ensemble import *
from .mechanisms import *
from .noise import *
from .pipeline import *
from .sensitivity import *
from .votes import *

__version__ = "0.1.0"
