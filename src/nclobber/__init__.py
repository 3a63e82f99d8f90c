"""N-player Clobber: game values, preference orders, and 1xn experiments.

Importing the package binds its five library modules; import names
from the module that defines them.  The command line lives in
nclobber.cli, which the package does not import.
"""

from . import enumeration, game_core, preferences, solver, values
