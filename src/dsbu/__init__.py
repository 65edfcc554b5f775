"""Pseudo-spectral laboratory for blow-up dynamics of the elliptic-elliptic
Davey-Stewartson system: ground states and the sharp interaction constant,
Strang-split time evolution with conservation monitors, exact reference
solutions, and windowed mass-concentration diagnostics."""

from .spectral import (
    Field,
    Grid2D,
    OperatorParams,
    SecondMoment,
    apply_b,
    apply_l,
    energy,
    gradient_norm_sq,
    l4_norm_4,
    mass,
    quartic_term,
    sample_scaled,
    second_moment,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Grid2D",
    "OperatorParams",
    "SecondMoment",
    "apply_b",
    "apply_l",
    "energy",
    "gradient_norm_sq",
    "l4_norm_4",
    "mass",
    "quartic_term",
    "sample_scaled",
    "second_moment",
    "__version__",
]
