"""N-player Clobber: game values, preference orders, and 1xn experiments."""

from .enumeration import (
    PUBLISHED_COUNTS,
    REGIMES,
    BoardFilter,
    EnumerationReport,
    board_passes,
    build_table,
    count_boards,
    enumerate_values,
    generate_boards,
    render_reports,
)
from .game_core import (
    BoardError,
    BoardGraph,
    Move,
    Position,
    apply_move,
    grid_graph,
    is_terminal,
    legal_moves,
    line_graph,
    next_active_player,
    parse_board,
    render_board,
)
from .preferences import (
    ChainCoordinate,
    ChainError,
    Comparison,
    OutcomeClass,
    chain_coordinate,
    compare,
    indifferent_class,
    leq,
    merge_incomparable_simples,
    outcome_class,
    prudent_compare,
    prudent_incomparable,
    prudent_less,
    prudent_simplify,
    prune,
    simple_compare,
)
from .solver import (
    MODES,
    Class,
    EvalCache,
    EvalResult,
    NoMoveError,
    Raw,
    Simple,
    evaluate,
    evaluate_all_starts,
    evaluate_text,
)
from .values import (
    DEFAULT_PROFILE,
    GameValue,
    NormalizationProfile,
    SimpleValue,
    ValueSyntaxError,
    choice,
    expand_simple,
    leaf,
    match_simple,
    normalize,
    parse_value,
    render_value,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
