"""Exact-arithmetic wall-crossing calculator for degree-8 del Pezzo pairs."""

__version__ = "1.0.0"

from .exactnum import (  # noqa: F401
    PiecewiseQuadratic,
    QuadraticPoly,
    SurdSum,
    integrate_piecewise,
    surd_compare,
)
from .surface import SurfaceModel, builtin_surface  # noqa: F401
from .volume import s_closed_form, s_engine, volume_profile  # noqa: F401
from .pairs import ChartCase, CurvePair, onePS_to_chart, parse_curve  # noqa: F401
from .stability import (  # noqa: F401
    beta,
    enumerate_walls,
    threshold,
    wall_values,
)
from .hkl import cone_threshold, hkl_param, map_walls  # noqa: F401
