"""Seeded request streams for the three workloads.

Every stream is a pure function of the integer seed, drawn with
``random.Random(seed)``; nothing is seeded from ``hash()``.  kwall itself sees
only the generated argv lists and divisor classes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

WORKLOADS = ("walls", "grid", "zariski")

WALLS_ARGV = ["walls", "--surface", "all", "--audit-extra"]

# The 16 f1 branch curves of the published wall atlas, each with its wall.
F1_ATLAS = (
    ("x^4*z*y", "1/14"),
    ("x^4*z^2+x^3*y^3", "5/58"),
    ("x^4*z^2+x^3*z*y^2+a*x^2*y^4", "1/10"),
    ("x^4*z^2+x*y^5", "7/62"),
    ("x^4*z^2+x^2*z*y^3+a*y^6", "1/8"),
    ("x^3*z^3+a1*x^3*z^2*y+a2*x^3*z*y^2+x^3*y^3", "1/8"),
    ("x^4*z^2+x*z*y^4", "5/34"),
    ("x^3*z^2*y+x^2*y^4", "5/34"),
    ("x^4*z^2+z*y^5", "1/6"),
    ("x^3*z^2*y+x^2*z*y^3+a*x*y^5", "1/6"),
    ("x^3*z^2*y+y^6", "7/38"),
    ("x^3*z^3+x^2*y^4", "7/38"),
    ("x^3*z^2*y+x*z*y^4", "1/5"),
    ("x^3*z^2*y+z*y^5", "5/22"),
    ("x^3*z^3+x^2*z*y^3", "5/22"),
    ("x^3*z^3+x*y^5", "2/7"),
)


def grid_argv(curve: str) -> list[str]:
    return ["threshold", "--surface", "f1", "--curve", curve, "--grid"]


def grid_curves(seed: int):
    """Endless stream of atlas curves drawn uniformly with replacement."""
    rng = random.Random(seed)
    while True:
        yield rng.choice(F1_ATLAS)[0]


# -- zariski ------------------------------------------------------------------

FIXED_MODELS = ("f1", "blp114", "index3m", "blp114-quotient-res")
CHART_FAMILIES = ("f1-case1", "f1-case2", "blp114-case1p", "blp114-case2p",
                  "blp114-case3p")
WEIGHT_SUM_MAX = 30
NEGATE_ONE_IN = 8

WEIGHTS = tuple((a, b) for a in range(1, WEIGHT_SUM_MAX)
                for b in range(1, WEIGHT_SUM_MAX + 1 - a) if gcd(a, b) == 1)


def model_keys() -> list[tuple[str, int | None, int | None]]:
    """Every model the zariski stream can draw, built once at set-up."""
    keys = [(ident, None, None) for ident in FIXED_MODELS]
    keys += [(fam, a, b) for fam in CHART_FAMILIES for a, b in WEIGHTS]
    return keys


def build_models(builtin_surface) -> dict:
    return {key: builtin_surface(*key) for key in model_keys()}


def zariski_stream(seed: int, models: dict):
    """Endless stream of (model key, divisor class, negated).

    The model kind is uniform over the 4 fixed models and the 5 chart families;
    a chart family takes coprime weights drawn uniformly with a + b <= 30.
    A class is a nonzero combination of the model's cone generators with
    coefficients p/q, 0 <= p <= 6, 1 <= q <= 3, so it is pseudo-effective; one
    class in eight is negated, which leaves the effective cone.
    """
    rng = random.Random(seed)
    kinds = FIXED_MODELS + CHART_FAMILIES
    while True:
        kind = rng.choice(kinds)
        key = (kind, None, None) if kind in FIXED_MODELS else (kind, *rng.choice(WEIGHTS))
        gens = [c for _, c in models[key].cone]
        while True:
            coeffs = [Fraction(rng.randint(0, 6), rng.randint(1, 3)) for _ in gens]
            d = tuple(sum((x * g[i] for x, g in zip(coeffs, gens)), Fraction(0))
                      for i in range(len(gens[0])))
            if any(d):
                break
        negated = rng.randrange(NEGATE_ONE_IN) == 0
        if negated:
            d = tuple(-x for x in d)
        yield key, d, negated
