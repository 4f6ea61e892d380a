"""The matrix exponential of a stack of small matrices, in numpy alone.

``expm_stack`` is degree-13 Pade approximation with scaling and squaring
(Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005).  Each matrix is scaled by
its own 1-norm, so one call serves a stack that mixes small and large norms,
and a matrix's result does not depend on the rest of the stack.
"""

from __future__ import annotations

import numpy as np

# The degree-13 Pade coefficients b_0..b_13, and the 1-norm up to which r_13 is
# accurate to double precision without squaring.
_B13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
        129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
        40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Each squaring about doubles the rounding error of the scaled approximant, so after
# 52 of them a result would carry no correct bit.
_MAX_SQUARINGS = 52


def expm_stack(A) -> np.ndarray:
    """e^A for each matrix of a (..., m, m) stack.

    A matrix is divided by 2^s, s = ceil(log2(||A||_1 / theta_13)) read off the
    norm's binary exponent, and its approximant squared s times.  A matrix whose
    1-norm is not finite, or needs more than _MAX_SQUARINGS squarings (a norm
    above about 2.4e16), gives a matrix of nan.
    """
    A = np.asarray(A)
    shape = A.shape
    A = A.reshape((-1,) + shape[-2:])
    norm = np.abs(A).sum(axis=1).max(axis=1, initial=0.0)
    mant, exp = np.frexp(norm / _THETA13)  # a nan or inf norm gives exponent 0
    s = np.maximum(exp - (mant == 0.5), 0)
    bad = ~np.isfinite(norm) | (s > _MAX_SQUARINGS)
    if bad.any():
        s[bad] = 0
        A = np.where(bad[:, None, None], 0, A)
    A = A * np.ldexp(1.0, -s)[:, None, None]
    b = _B13
    eye = np.eye(shape[-1])
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2) + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye
    R = eye + 2 * np.linalg.solve(V - U, U)  # (V - U)^-1 (V + U), exactly I where A is 0
    for i in range(int(s.max(initial=0))):
        more = s > i
        if more.all():
            R = R @ R
        else:
            R[more] = R[more] @ R[more]
    R[bad] = np.nan
    return R.reshape(shape)
