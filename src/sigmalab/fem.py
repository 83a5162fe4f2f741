"""P1 finite elements for the divergence-form Dirichlet problem.

The weak form sums (sigma(centroid) grad u_h) . grad phi over triangles;
centroid quadrature is exact for constant coefficients and consistent at P1
order for continuous ones. Nonsymmetric sigma is assembled as-is, no
symmetrization. The linear system is solved by a sparse direct factorization
so results are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .coefficients import CoefficientField, require_elliptic
from .errors import MeshError, SolverError
from .mesh import Mesh, read_section

RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class ScalarField:
    """Piecewise-linear nodal function on a mesh."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.mesh.num_vertices,):
            raise SolverError(
                f"field has {values.shape} values for {self.mesh.num_vertices} vertices"
            )
        if not np.isfinite(values).all():
            raise SolverError("field has non-finite nodal values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def interpolate(self, points) -> np.ndarray:
        """Evaluate the interpolant at points; NaN outside the mesh."""
        tri, bary = self.mesh.locate(points)
        out = np.full(len(tri), np.nan)
        ok = tri >= 0
        out[ok] = np.einsum(
            "pi,pi->p", self.values[self.mesh.triangles[tri[ok]]], bary[ok]
        )
        return out


@dataclass(frozen=True)
class TriangleGradientField:
    """One constant gradient vector per triangle."""

    mesh: Mesh
    vectors: np.ndarray

    def norms(self) -> np.ndarray:
        return np.hypot(self.vectors[:, 0], self.vectors[:, 1])


def assemble_stiffness(mesh: Mesh, S: np.ndarray) -> sparse.csr_matrix:
    """Assemble the P1 stiffness matrix A[i, j] = sum_T area (sigma grad phi_j) . grad phi_i
    from the (nt, 2, 2) samples S of sigma at the centroids."""
    G = mesh.basis_gradients
    K = np.einsum("tia,tab,tjb->tij", G, S, G) * mesh.areas[:, None, None]
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
    columns; SolverError when x is not finite or a residual exceeds 1e-10."""
    if not np.isfinite(x).all():
        raise SolverError("linear solve produced non-finite values")
    scale = np.abs(rhs).max(axis=0)
    residual = np.abs(A @ x - rhs).max(axis=0)
    relative = float(np.divide(residual, scale, out=np.zeros_like(scale), where=scale > 0).max())
    if relative > RESIDUAL_TOL:
        raise SolverError(
            f"relative solve residual {relative:.3e} exceeds {RESIDUAL_TOL}"
        )
    return relative


def solve_dirichlet(mesh: Mesh, sigma: CoefficientField, g) -> tuple[list[ScalarField], float]:
    """Galerkin solutions of div(sigma grad u) = 0, one per row of boundary data.

    g takes the boundary-vertex coordinate arrays (X, Y) and returns the nodal
    boundary values, shape (n,) for one solution or (k, n) for k (the
    AnalyticSolution.value contract). The operator is assembled once and the k
    right-hand sides share one sparse direct solve. Returns the k fields and
    the largest relative max-norm residual. Raises SolverError when the mesh
    has no interior vertices, g returns the wrong shape or non-finite values,
    the system is singular, or a residual exceeds 1e-10.
    """
    A = assemble_stiffness(mesh, require_elliptic(sigma, mesh.centroids).samples)
    interior = mesh.interior_vertices
    if len(interior) == 0:
        raise SolverError("mesh has no interior vertices; nothing to solve for")
    bnd = mesh.boundary_vertices
    G = boundary_values(g, mesh.vertices[bnd])

    rhs = -A[interior][:, bnd] @ G.T
    Aii = A[interior][:, interior].tocsc()
    with warnings.catch_warnings():
        warnings.simplefilter("error", MatrixRankWarning)
        try:
            ui = spsolve(Aii, rhs).reshape(rhs.shape)  # (n,) back for one column
        except (MatrixRankWarning, RuntimeError) as exc:
            raise SolverError(f"stiffness system is singular: {exc}") from exc
    relative = checked_residual(Aii, ui, rhs)
    u = np.zeros((len(G), mesh.num_vertices))
    u[:, bnd] = G
    u[:, interior] = ui.T
    return [ScalarField(mesh, row) for row in u], relative


def gradient_field(u: ScalarField) -> TriangleGradientField:
    """Exact per-triangle gradient of the piecewise-linear interpolant."""
    g = np.einsum("tid,ti->td", u.mesh.basis_gradients, u.values[u.mesh.triangles])
    return TriangleGradientField(u.mesh, g)


def energy(u: ScalarField, sigma: CoefficientField) -> float:
    """Dirichlet energy u . A u, the quadratic form of the stiffness matrix
    (sum_T area (sigma grad u) . grad u)."""
    S = require_elliptic(sigma, u.mesh.centroids).samples
    return float(u.values @ (assemble_stiffness(u.mesh, S) @ u.values))


def relative_l2_error(u: ScalarField, exact) -> float:
    """Relative L2 distance to a reference function, by centroid quadrature.

    exact takes the centroid coordinate arrays (X, Y) and returns (n,) values.
    """
    mesh = u.mesh
    uh = u.values[mesh.triangles].mean(axis=1)
    ue = np.asarray(exact(*mesh.centroids.T), dtype=float)
    if ue.shape != uh.shape:
        raise SolverError(f"reference returned shape {ue.shape}, expected {uh.shape}")
    den = np.sum(mesh.areas * ue * ue)
    if den == 0.0:
        raise SolverError("reference function is identically zero on centroids")
    return float(np.sqrt(np.sum(mesh.areas * (uh - ue) ** 2) / den))


# ---------------------------------------------------------------------------
# plain-text format: "field v1"


def field_to_text(u: ScalarField) -> str:
    n = len(u.values)
    return f"field v1\nvalues {n}\n" + ("%r\n" * n) % tuple(u.values.tolist())


def field_from_text(text: str, mesh: Mesh) -> ScalarField:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "field v1":
        raise MeshError("not a 'field v1' file")
    values, _ = read_section(lines, 1, "values", 1, float)
    if len(values) != mesh.num_vertices:
        raise MeshError(
            f"field has {len(values)} values but the mesh has {mesh.num_vertices} vertices"
        )
    return ScalarField(mesh, values.ravel())
