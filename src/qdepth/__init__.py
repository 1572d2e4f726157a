"""Circuit-depth bounds for QAOA encodings of 3-SAT.

The package compares two routes from a 3-SAT instance to a quadratic
unconstrained binary objective and the one-layer circuit depth each implies:

* a linearized encoding with per-clause ancillas, dualized with a penalty
  multiplier, and
* the native cubic product encoding, reduced to quadratic by substituting
  products of variable pairs, where the choice of pairs is itself an
  optimization problem (solved exactly as an integer program or by a
  randomized greedy heuristic).

Depth is read off the interaction graph: color its edges so that no two
touching edges share a color, run one gate layer per color, and add one
mixer layer.

Importing the package loads none of its modules; each command of the
command line (`qdepth.cli`) imports only the modules its path runs.
"""

__version__ = "0.1.0"

# seconds an exact solve may take unless --budget or QDEPTH_BUDGET_SECS says
# otherwise; kept here so the command line can read it without importing
# the solver
DEFAULT_BUDGET_SECS = 300.0
