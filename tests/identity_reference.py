"""An independent route to the right side of the s-lambda window identity.

``norms.s_lambda_identity_check`` takes both sides from the exact cell sums.
``transform_side`` integrates the pointwise oscillation transform against the
reciprocal weight by adaptive quadrature instead, with the reciprocal
breakpoints as interior points, so that a test can check either exact side
against it.
"""

import math

from scipy.integrate import quad

from lorentzk.stepfn import StepFunction, osc_transform, rearrange
from lorentzk.weights import QUAD_REL_TOL, Weight, reciprocal_weight


def transform_side(f: StepFunction, p: float, w: Weight, t: float = math.inf) -> float:
    """(integral_{1/t}^inf (Tf*)^p w~)^{1/p} by ``quad``, w~ the reciprocal weight of w."""
    fstar = rearrange(f)
    if fstar.is_zero:
        return 0.0
    transform, wr = osc_transform(fstar), reciprocal_weight(w, p)
    lo = 0.0 if math.isinf(t) else 1.0 / t
    hi = 1.0 / fstar.first_breakpoint  # the transform vanishes beyond this point
    if lo >= hi:
        return 0.0
    jumps = 1.0 / fstar.breakpoints[::-1]
    interior = jumps[(lo < jumps) & (jumps < hi)]
    val, _err = quad(
        lambda s: transform(s) ** p * wr(s),
        lo,
        hi,
        points=interior if interior.size else None,
        epsrel=QUAD_REL_TOL,
        epsabs=0.0,
        limit=300,
    )
    return val ** (1.0 / p)
