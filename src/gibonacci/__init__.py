"""Exact arithmetic for Gibonacci arrays, their sign-alternating row
polynomials and certified real roots, the two-node seeded numbers game, and
symmetric ranked posets of constrained strings."""

from .exactnum import (
    AlgebraicNumber,
    EndpointRootError,
    ExactError,
    Interval,
    Poly,
    isolate_real_roots,
    poly_gcd,
    rational,
    sign_at_algebraic,
    sturm_count,
)
from .game import (
    Classification,
    GameConfig,
    GameState,
    GameTrace,
    classify,
    fire,
    play,
    play_symbolic,
    predicted_moves,
    seeded_fire,
    terminal_numbers,
)
from .polys import (
    GibParams,
    array_rows,
    binet_eval,
    companion_poly,
    eigen_pair,
    sign_alternating_poly,
    value_at_four,
)
from .posets import (
    SGPoset,
    build_poset,
    check_lattice,
    count_by_formula,
    count_by_inclusion_exclusion,
    rank_generating_function,
    triangle_polynomial,
    triangle_row,
    validate_string,
    verify_identity_suite,
)
from .roots import (
    RootSet,
    bound_B,
    check_interlacing,
    fibonacci_closed_roots,
    largest_root,
    lucas_closed_roots,
    roots_of,
)

__version__ = "0.1.0"
