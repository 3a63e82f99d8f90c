"""N-player Clobber: game values, preference orders, and 1xn experiments.

Re-exports the names the README documents, with the result and error
types of their signatures; importing it binds all five submodules.
"""

from .enumeration import (
    EnumerationReport,
    count_boards,
    enumerate_values,
    raw_values,
)
from .game_core import BoardError, BoardGraph, Position, grid_graph, line_graph, parse_board
from .preferences import (
    ChainCoordinate,
    ChainError,
    Comparison,
    chain_coordinate,
    compare,
    indifferent_class,
    leq,
    prudent_compare,
    prudent_simplify,
    prune,
    prune_fold,
    simple_compare,
)
from .solver import (
    Class,
    EvalCache,
    EvalResult,
    NoMoveError,
    Raw,
    Simple,
    evaluate,
    evaluate_all_starts,
    evaluate_text,
    fold_raw,
    render_result,
)
from .values import (
    GameValue,
    NormalizationProfile,
    SimpleValue,
    ValueSyntaxError,
    normalize,
    parse_value,
    render_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
