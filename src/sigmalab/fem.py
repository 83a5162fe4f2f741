"""P1 finite elements for the divergence-form Dirichlet problem.

The weak form sums (sigma(centroid) grad u_h) . grad phi over triangles;
centroid quadrature is exact for constant coefficients and consistent at P1
order for continuous ones. Nonsymmetric sigma is assembled as-is, no
symmetrization. The linear system is solved by a sparse direct factorization
so results are deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshError, SolverError
from .mesh import Mesh, keep, kept, read_section

RESIDUAL_TOL = 1e-10


def checked_samples(S, shape: tuple, what: str) -> np.ndarray:
    """S as a float array; SolverError unless it has the given shape and
    finite entries."""
    S = np.asarray(S, dtype=float)
    if S.shape != shape:
        raise SolverError(f"{what} has shape {S.shape}, expected {shape}")
    if not np.isfinite(S).all():
        raise SolverError(f"{what} has non-finite entries")
    return S


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Piecewise-linear nodal function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = checked_samples(self.values, (self.mesh.num_vertices,), "field")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


def _factor(A, what: str, permc_spec: str):
    """One SuperLU factor of the structurally symmetric CSC matrix A, in
    symmetric mode on the column ordering permc_spec with scipy's default
    partial pivoting, as solve(b) = A^-1 b for an (n,) or (n, k) right-hand
    side b; SolverError naming `what` when the factor is exactly singular, or
    when a solution is not finite.

    The P1 systems use MMD_AT_PLUS_A, which fills less than COLAMD (41,670
    against 56,678 L+U nonzeros at 1141 unknowns); fd's nested-dissection
    numbering keeps its order with NATURAL.
    """
    # scipy is imported where it is called, here and across the package: a
    # module-level import costs every command about 0.5 s at start-up, and a
    # command loads only the parts of scipy that it runs
    from scipy.sparse import linalg

    try:
        lu = linalg.splu(A, permc_spec=permc_spec, options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"{what} is singular: {exc}") from exc

    def solve(b):
        x = lu.solve(b)
        if not np.isfinite(x).all():
            raise SolverError(f"{what} solve produced non-finite values")
        return x

    return solve


def spsolve(A, b):
    """(A^-1 b, solve): the stiffness system's one _factor, solved for b and
    handed back for later right-hand sides, under the name a trace of fem's
    factorizations wraps."""
    solve = _factor(A, "stiffness system", "MMD_AT_PLUS_A")
    return solve(b), solve


def assemble_stiffness(mesh: Mesh, S: np.ndarray):
    """Assemble the P1 stiffness matrix A[i, j] = sum_T area (sigma grad phi_j) . grad phi_i
    from the (nt, 2, 2) samples S of sigma at the centroids, as a CSR matrix."""
    from scipy import sparse

    # K[t, i, j] = sum_ab G[t, i, a] S[t, a, b] G[t, j, b] as four broadcast
    # products added in einsum's order: the same bits in under half its time
    G = mesh.basis_gradients
    Gi, Gj = G[:, :, None, :], G[:, None, :, :]

    def term(a, b):
        return (Gi[..., a] * S[:, None, None, a, b]) * Gj[..., b]

    K = (term(0, 0) + term(0, 1) + term(1, 0) + term(1, 1)) * mesh.areas[:, None, None]
    t = mesh.triangles
    rows = np.repeat(t, 3, axis=1).ravel()
    cols = np.tile(t, (1, 3)).ravel()
    nv = mesh.num_vertices
    return sparse.coo_matrix((K.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def boundary_values(g, points) -> np.ndarray:
    """g at the (n, 2) points as a (k, n) array; g returns (n,) or (k, n)."""
    n = len(points)
    V = np.asarray(g(*points.T), dtype=float)
    if V.shape != (n,) and (V.ndim != 2 or V.shape[1] != n or len(V) == 0):
        raise SolverError(
            f"boundary data returned shape {V.shape}, expected ({n},) or (k, {n})"
        )
    if not np.isfinite(V).all():
        raise SolverError("boundary data evaluated to non-finite values")
    return V.reshape(-1, n)


def checked_residual(A, x, rhs: np.ndarray) -> float:
    """The largest relative max-norm residual of A x = rhs over the (n, k)
    columns; SolverError when a residual exceeds 1e-10."""
    scale = np.abs(rhs).max(axis=0)
    residual = np.abs(A @ x - rhs).max(axis=0)
    relative = float(np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0).max())
    if relative > RESIDUAL_TOL:
        raise SolverError(
            f"relative solve residual {relative:.3e} exceeds {RESIDUAL_TOL}"
        )
    return relative


def solve_dirichlet(mesh: Mesh, S: np.ndarray, g) -> tuple[list[ScalarField], float]:
    """Galerkin solutions of div(sigma grad u) = 0, one per row of boundary data.

    S holds sigma's (nt, 2, 2) samples at the centroids. g takes the
    boundary-vertex coordinate arrays (X, Y) and returns the nodal boundary
    values, shape (n,) for one solution or (k, n) for k (the
    AnalyticSolution.value contract). The k right-hand sides share one sparse
    direct solve. Returns the k fields and the largest relative max-norm
    residual. Raises SolverError when S has the wrong shape or non-finite
    entries, the mesh has no interior vertices, g returns the wrong shape or
    non-finite values, the system is singular, or a residual exceeds 1e-10.

    The interior system and its factor are kept for the mesh as its
    "stiffness system" (mesh.kept), keyed by the samples' bytes (-0.0 and 0.0
    differ): verify and beltrami on one field share one factorization.
    """
    S = checked_samples(S, (mesh.num_triangles, 2, 2), "sigma samples")
    interior = mesh.interior_vertices
    if len(interior) == 0:
        raise SolverError("mesh has no interior vertices; nothing to solve for")
    bnd = mesh.boundary_vertices
    G = boundary_values(g, mesh.vertices[bnd])

    key = S.tobytes()
    operator = kept(mesh, "stiffness system", key)
    if operator is None:
        Ai = assemble_stiffness(mesh, S)[interior]
        Aib, Aii = Ai[:, bnd], Ai[:, interior].tocsc()
        rhs = -Aib @ G.T
        ui, solve = spsolve(Aii, rhs)
        keep(mesh, "stiffness system", (Aib, Aii, solve), key)
    else:
        Aib, Aii, solve = operator
        rhs = -Aib @ G.T
        ui = solve(rhs)
    relative = checked_residual(Aii, ui, rhs)
    u = np.zeros((len(G), mesh.num_vertices))
    u[:, bnd] = G
    u[:, interior] = ui.T
    return [ScalarField(mesh, row) for row in u], relative


def gradient_field(u: ScalarField) -> np.ndarray:
    """Exact per-triangle gradient of the piecewise-linear interpolant, (nt, 2)."""
    return np.einsum("tid,ti->td", u.mesh.basis_gradients, u.values[u.mesh.triangles])


def relative_l2_error(u: ScalarField, exact) -> float:
    """Relative L2 distance to a reference function, by centroid quadrature.

    exact takes the centroid coordinate arrays (X, Y) and returns (n,) values.
    """
    mesh = u.mesh
    uh = u.values[mesh.triangles].mean(axis=1)
    ue = np.asarray(exact(*mesh.centroids.T), dtype=float)
    if ue.shape != uh.shape:
        raise SolverError(f"reference returned shape {ue.shape}, expected {uh.shape}")
    # each factor divided exactly by a power of two, so that a tiny domain's
    # squares do not underflow; the errors' and values' exponents come back last
    a, _ = _scaled(mesh.areas)
    d, e_num = _scaled(uh - ue)
    ue, e_den = _scaled(ue)
    den = np.sum(a * ue * ue)
    if den == 0.0:
        raise SolverError("reference function is identically zero on centroids")
    return float(np.ldexp(np.sqrt(np.sum(a * d**2) / den), e_num - e_den))


def relative_l2(x, ref, weights=None) -> float:
    """sqrt(sum w |x|^2) / sqrt(sum w |ref|^2) over the rows of the real or
    complex (n,) or (n, d) arrays x and ref, with the (n,) weights w (ones
    when None); inf when ref is zero. |x| and |ref| are each divided by a
    power of two and w by an even one, which the roots take out exactly: the
    plain formula's bits wherever its squares neither overflow nor underflow.
    """
    x, e_num = _scaled(np.abs(x))
    ref, e_den = _scaled(np.abs(ref))
    if not ref.any():
        return math.inf
    w = 1.0
    if weights is not None:
        e = int(np.frexp(np.max(weights))[1])
        w = np.ldexp(weights, -(e + e % 2))

    def norm(a):
        return np.sqrt(np.sum(w * (a * a if a.ndim == 1 else np.sum(a * a, axis=1))))

    with np.errstate(over="ignore"):  # a ratio beyond the largest double is inf
        return float(np.ldexp(norm(x) / norm(ref), e_num - e_den))


def _scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x / 2**e, e) with the largest |entry| of x in [2**(e - 1), 2**e); e = 0 for zeros."""
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e), e


# ---------------------------------------------------------------------------
# plain-text format: "field v1"


def field_to_text(u: ScalarField) -> str:
    n = len(u.values)
    return f"field v1\nvalues {n}\n" + ("%r\n" * n) % tuple(u.values.tolist())


def field_from_text(text: str, mesh: Mesh) -> ScalarField:
    """The field of a "field v1" text on the mesh; MeshError when the text is
    malformed, SolverError for a value that is not finite."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "field v1":
        raise MeshError("not a 'field v1' file")
    values, _ = read_section(lines, 1, "values", 1, float)
    if len(values) != mesh.num_vertices:
        raise MeshError(
            f"field has {len(values)} values but the mesh has {mesh.num_vertices} vertices"
        )
    return ScalarField(mesh, values.ravel())
