"""The builtin toric surface models as the package entered them by hand,
before they were derived from the plane fans: for each model, the Gram matrix
of its basis, its cone generators, its anticanonical class (pulled back from
the plane model) and its named classes.  They are the oracle the fan-built
models of ``kwall.surface`` are compared against."""

from fractions import Fraction

from kwall.surface import SurfaceModel, vec


def _model_f1() -> SurfaceModel:
    """Plane blown up at [1,0,0]; basis (H, E) with H the line class."""
    gram = (vec(1, 0), vec(0, -1))
    fiber = vec(1, -1)
    e = vec(0, 1)
    classes = {"H_x": vec(1, 0), "H_y": fiber, "H_z": fiber, "E": e, "H": vec(1, 0)}
    return SurfaceModel(
        name="f1", basis=("H", "E"), gram=gram,
        cone=(("E", e), ("fiber", fiber)),
        anticanonical=vec(3, -1), classes=classes)


def _model_blp114() -> SurfaceModel:
    """Weighted plane P(1,1,4) blown up at the smooth point [1,0,0]."""
    gram = (vec(Fraction(-3, 4), 1), vec(1, -1))
    hy = vec(1, 0)
    e = vec(0, 1)
    classes = {"H_y": hy, "E": e, "H_x": vec(1, 1), "H_z": vec(4, 3)}
    return SurfaceModel(
        name="blp114", basis=("H_y", "E"), gram=gram,
        cone=(("H_y", hy), ("E", e)),
        anticanonical=vec(6, 5), classes=classes)



def _model_blp114_quotient_res() -> SurfaceModel:
    """Minimal resolution of the quarter point on Bl P(1,1,4); F is the (-4)-curve."""
    gram = (vec(-4, 0, 1), vec(0, -1, 1), vec(1, 1, -1))
    f = vec(1, 0, 0)
    e = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    anti = vec(Fraction(3, 2), 5, 6)
    return SurfaceModel(
        name="blp114-quotient-res", basis=("F", "E", "H_y"), gram=gram,
        cone=(("F", f), ("E", e), ("H_y", hy)),
        anticanonical=anti, classes={"F": f, "E": e, "H_y": hy}, exceptional="F")



def _model_f1_case1(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of F1 at a torus-fixed point away from E.

    Basis (F, Ebar, Hzbar): Hzbar is the line through both blowup centers,
    Hxbar = (b-a)F + Ebar + Hzbar the line through the new center only.
    """
    gram = (vec(Fraction(-1, a * b), 0, Fraction(1, a)),
            vec(0, -1, 1),
            vec(Fraction(1, a), 1, Fraction(-b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hz = vec(0, 0, 1)
    hx = vec(b - a, 1, 1)
    anti = vec(3 * b, 2, 3)
    return SurfaceModel(
        name=f"f1-case1({a},{b})", basis=("F", "Ebar", "Hzbar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hzbar", hz), ("Hxbar", hx)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hzbar": hz, "Hxbar": hx},
        exceptional="F")


def _model_f1_case2(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of F1 centered at a fixed point on E.

    Basis (F, Ebar, Lbar) with Lbar the invariant fiber through the center.
    """
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), Fraction(1, a)),
            vec(Fraction(1, b), Fraction(-(a + b), b), 0),
            vec(Fraction(1, a), 0, Fraction(-b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    lbar = vec(0, 0, 1)
    anti = vec(2 * a + 3 * b, 2, 3)
    return SurfaceModel(
        name=f"f1-case2({a},{b})", basis=("F", "Ebar", "Lbar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Lbar", lbar)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Lbar": lbar},
        exceptional="F")


def _model_blp114_case1p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of Bl P(1,1,4) at the point of E on H_y."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), Fraction(1, a)),
            vec(Fraction(1, b), Fraction(-(a + b), b), 0),
            vec(Fraction(1, a), 0, Fraction(-3, 4) - Fraction(b, a)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    anti = vec(5 * a + 6 * b, 5, 6)
    return SurfaceModel(
        name=f"blp114-case1p({a},{b})", basis=("F", "Ebar", "Hybar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hybar", hy)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hybar": hy,
                                     "Hzbar": vec(3 * a + 4 * b, 3, 4)},
        exceptional="F")


def _model_blp114_case2p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of Bl P(1,1,4) at the point of E on H_z."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), 0),
            vec(Fraction(1, b), Fraction(-(a + b), b), 1),
            vec(0, 1, Fraction(-3, 4)))
    f = vec(1, 0, 0)
    ebar = vec(0, 1, 0)
    hy = vec(0, 0, 1)
    hz = vec(3 * a - b, 3, 4)
    anti = vec(5 * a, 5, 6)
    return SurfaceModel(
        name=f"blp114-case2p({a},{b})", basis=("F", "Ebar", "Hybar"), gram=gram,
        cone=(("F", f), ("Ebar", ebar), ("Hybar", hy), ("Hzbar", hz)),
        anticanonical=anti, classes={"F": f, "Ebar": ebar, "Hybar": hy, "Hzbar": hz},
        exceptional="F")


def _model_blp114_case3p(a: int, b: int) -> SurfaceModel:
    """Weight-(a,b) blowup of P(1,1,4) at [0,1,0], pulled back to Bl P(1,1,4)."""
    gram = (vec(Fraction(-1, a * b), Fraction(1, b), 0),
            vec(Fraction(1, b), Fraction(1, 4) - Fraction(a, b), 0),
            vec(0, 0, -1))
    f = vec(1, 0, 0)
    hx = vec(0, 1, 0)
    ebar = vec(0, 0, 1)
    hy = vec(a, 1, -1)
    hz = vec(4 * a - b, 4, -1)
    anti = vec(6 * a, 6, -1)
    return SurfaceModel(
        name=f"blp114-case3p({a},{b})", basis=("F", "Hxbar", "Ebar"), gram=gram,
        cone=(("F", f), ("Hxbar", hx), ("Ebar", ebar), ("Hybar", hy), ("Hzbar", hz)),
        anticanonical=anti,
        classes={"F": f, "Hxbar": hx, "Ebar": ebar, "Hybar": hy, "Hzbar": hz},
        exceptional="F")


FIXED_MODELS = {
    "f1": _model_f1,
    "blp114": _model_blp114,
    "blp114-quotient-res": _model_blp114_quotient_res,
}

WEIGHTED_MODELS = {
    "f1-case1": _model_f1_case1,
    "f1-case2": _model_f1_case2,
    "blp114-case1p": _model_blp114_case1p,
    "blp114-case2p": _model_blp114_case2p,
    "blp114-case3p": _model_blp114_case3p,
}
