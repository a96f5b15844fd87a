"""Exact-arithmetic wall-crossing calculator for degree-8 del Pezzo pairs."""

__version__ = "1.0.0"

from .exactnum import PiecewiseQuadratic, QuadraticPoly, SurdSum  # noqa: F401
from .surface import SurfaceModel, builtin_surface  # noqa: F401
from .volume import volume_profile  # noqa: F401
from .pairs import ChartCase, CurvePair, onePS_to_chart, parse_curve  # noqa: F401
from .stability import enumerate_walls, threshold  # noqa: F401
