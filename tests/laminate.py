"""Laminates: exact sigma-harmonic maps for a discontinuous, non-symmetric sigma.

sigma is S1 on the side p . n < 0 of a line through the origin and S2 on the
side p . n > 0, each constant and elliptic. The map U = A1 p on the first
side and A2 p on the second solves div(sigma grad u) = 0 in each component
when it meets the two transmission conditions across the line:
- the tangential derivatives agree: A2 = A1 + c n^T for a column c;
- the normal fluxes agree: n . S1 a1 = n . S2 a2 for each row a of A1, A2.

Given A1 they fix c = A1 (S1 - S2)^T n / (n . S2 n), and
det A2 = det A1 (n . S1 n) / (n . S2 n), positive with det A1. On a mesh
whose edges lie on the line U is piecewise linear, so the P1 solution with
U's boundary values is U itself, up to roundoff.
"""

import numpy as np

from sigmalab.coefficients import CoefficientField


def laminate(S1, S2, A1, normal):
    """(sigma, A2, U) for the laminate across the line normal . p = 0: sigma
    as a CoefficientField, the second side's matrix, and U(X, Y) as a (2, n)
    array, A1 p where normal . p <= 0 and A2 p elsewhere."""
    S1, S2, A1, n = (np.asarray(a, dtype=float) for a in (S1, S2, A1, normal))
    A2 = A1 + np.outer(A1 @ (S1 - S2).T @ n / (n @ S2 @ n), n)

    def sides(X, Y):
        return X * n[0] + Y * n[1] > 0

    def evaluator(X, Y):
        return np.where(sides(X, Y)[:, None, None], S2, S1)

    def U(X, Y):
        P = np.stack([X, Y])
        return np.where(sides(X, Y), A2 @ P, A1 @ P)

    return CoefficientField(evaluator, "laminate"), A2, U
