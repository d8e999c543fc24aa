"""Normalized-Laplacian eigensolver and the Cheeger sweep-cut partitioner.

The operator is ``L = I - D^{-1/2} A D^{-1/2}`` with degree-0 rows acting as
the identity. Small graphs (n <= 64) use a dense direct solve, which doubles
as the oracle path for tests; larger graphs use an implicitly restarted
Lanczos iteration on ``2I - L`` (largest-eigenvalue form, which converges
much faster than interior shifts for this spectrum).
All randomness is a fixed-key Philox start vector, so results are
deterministic.

The sweep reads the edge arrays only: an edge enters the prefix sums at the
later rank of its endpoints, so every prefix cut comes from one bincount
and one cumulative sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import Graph, _conductance, _member_mask

__all__ = [
    "SpectralResult",
    "SweepCut",
    "SpectralConvergenceError",
    "smallest_eigenvalues",
    "spectral_partition",
]

DENSE_LIMIT = 64
DEFAULT_TOL = 1e-8


class SpectralConvergenceError(RuntimeError):
    """Eigensolver failed to reach the residual tolerance.

    Carries the best eigenvalue estimates and their residual norms.
    """

    def __init__(self, message, eigenvalues=None, residuals=None):
        super().__init__(message)
        self.eigenvalues = eigenvalues
        self.residuals = residuals


@dataclass(frozen=True)
class SpectralResult:
    """Ascending eigenvalues, matching eigenvector columns, residual norms."""
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray


@dataclass(frozen=True)
class SweepCut:
    """A sweep-cut set with vol(set) <= vol(V)/2 and its conductance."""
    set: np.ndarray
    conductance: float


def _normalized_adjacency(G: Graph) -> sp.csr_array:
    d = G.degrees
    inv_sqrt = np.zeros_like(d)
    inv_sqrt[d > 0] = 1.0 / np.sqrt(d[d > 0])
    # Edges are sorted with u < v, so putting each vertex's lower neighbours
    # (the (v, u) half) first lists every row's columns in ascending order:
    # the COO -> CSR conversion comes out canonical and skips its index sort.
    rows = np.concatenate([G.edges_v, G.edges_u])
    cols = np.concatenate([G.edges_u, G.edges_v])
    vals = np.concatenate([G.edges_w, G.edges_w])
    vals = vals * inv_sqrt[rows] * inv_sqrt[cols]
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(G.n, G.n)))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    for j in range(vectors.shape[1]):
        col = vectors[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))
        if nz.size and col[nz[0]] < 0:
            vectors[:, j] = -col
    return vectors


def _residual_norms(N: sp.csr_array, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    # L x = x - N x
    lx = vecs - N @ vecs
    return np.linalg.norm(lx - vecs * vals[None, :], axis=0)


def smallest_eigenvalues(G: Graph, k: int,
                         method: str = "auto") -> SpectralResult:
    """The ``k`` smallest eigenpairs of the normalized Laplacian.

    Each returned pair satisfies ``||L x - lambda x|| <= DEFAULT_TOL``.

    Parameters
    ----------
    G : Graph
    k : int
        Number of eigenpairs, ``1 <= k <= n``.
    method : {"auto", "dense", "iterative"}
        "auto" picks dense for ``n <= 64`` or ``k == n``.

    Raises
    ------
    SpectralConvergenceError
        If the residuals exceed ``DEFAULT_TOL``, or the Lanczos path fails
        to converge within ``10 * n * k`` iterations and then four times
        that; the error carries the best estimates and residuals.
    """
    n = G.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if method not in ("auto", "dense", "iterative"):
        raise ValueError(f"unknown method {method!r}")
    use_dense = method == "dense" or \
        (method == "auto" and (n <= DENSE_LIMIT or k == n))
    if method == "iterative" and k >= n:
        raise ValueError("iterative path needs k < n")
    N = _normalized_adjacency(G)
    if use_dense:
        L = np.eye(n) - N.toarray()
        vals, vecs = np.linalg.eigh(L)
        vals, vecs = vals[:k].copy(), vecs[:, :k].copy()
    else:
        vals, vecs = _lanczos_smallest(N, k)
    # Round-off can push lambda_1 a hair below zero; clamp the dust.
    if np.any(vals < -10 * DEFAULT_TOL):
        raise SpectralConvergenceError(
            f"eigenvalue {vals.min():.3e} below zero beyond tolerance",
            eigenvalues=vals, residuals=None)
    vals = np.maximum(vals, 0.0)
    vecs = _fix_signs(vecs)
    residuals = _residual_norms(N, vals, vecs)
    if np.any(residuals > DEFAULT_TOL):
        raise SpectralConvergenceError(
            f"residuals up to {residuals.max():.3e} exceed "
            f"tol={DEFAULT_TOL:.1e}",
            eigenvalues=vals, residuals=residuals)
    return SpectralResult(vals, vecs, residuals)


def _lanczos_smallest(N: sp.csr_array, k: int):
    """Smallest eigenpairs of L = I - N via largest of 2I - L = I + N."""
    n = N.shape[0]
    max_iter = 10 * n * k

    def matvec(x):
        return x + N @ x

    op = spla.LinearOperator((n, n), matvec=matvec, dtype=np.float64)
    rng = np.random.Generator(np.random.Philox(key=0x5EED))
    v0 = rng.standard_normal(n)
    last_err = None
    for attempt_tol, attempt_iter in ((DEFAULT_TOL * 1e-2, max_iter),
                                      (DEFAULT_TOL * 1e-4, 4 * max_iter)):
        try:
            mu, vecs = spla.eigsh(op, k=k, which="LA", tol=attempt_tol,
                                  maxiter=attempt_iter, v0=v0)
        except spla.ArpackNoConvergence as exc:
            last_err = exc
            continue
        vals = 2.0 - mu
        order = np.argsort(vals, kind="stable")
        return vals[order], vecs[:, order]
    partial_vals = getattr(last_err, "eigenvalues", None)
    raise SpectralConvergenceError(
        f"Lanczos failed to converge within {4 * max_iter} iterations",
        eigenvalues=None if partial_vals is None else 2.0 - partial_vals,
        residuals=None) from last_err


def spectral_partition(G: Graph, eigs: SpectralResult | None = None) -> SweepCut:
    """Cheeger sweep cut from the second eigenvector.

    Vertices are ordered by ``v_u / sqrt(d_u)`` (ties by vertex id,
    degree-0 vertices last with entry 0); among the n-1 prefix cuts the
    returned set is the prefix or its complement, whichever has
    ``vol <= vol(V)/2``, of minimum conductance. The classical guarantee
    ``phi(S) <= 2 sqrt(phi_G)`` holds for any exact second eigenvector.
    Each edge enters the prefix at the later rank of its two endpoints, so
    the cut of prefix ``t`` is its volume minus twice the weight of the
    edges entered by rank ``t``. These differences of volumes
    pick the cut; the conductance returned is measured on the chosen set.

    An already-computed :class:`SpectralResult` with k >= 2 can be passed
    to skip the eigensolve.
    """
    n = G.n
    if n < 2:
        raise ValueError("sweep cut needs at least 2 vertices")
    if eigs is None:
        eigs = smallest_eigenvalues(G, 2)
    if eigs.eigenvectors.shape[1] < 2:
        raise ValueError("need at least 2 eigenvectors for the sweep")
    v = eigs.eigenvectors[:, 1]
    isolated = G.degrees == 0
    scaled = np.zeros(n)
    scaled[~isolated] = v[~isolated] / np.sqrt(G.degrees[~isolated])
    order = np.lexsort((np.arange(n), scaled, isolated))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    enter = np.maximum(rank[G.edges_u], rank[G.edges_v])
    w_in = np.bincount(enter, weights=G.edges_w, minlength=n)
    deg = G.degrees[order]
    cut = np.cumsum(deg - 2.0 * w_in)[:-1]
    vol = np.cumsum(deg)[:-1]
    total = G.total_volume
    side = np.where(vol > total / 2, np.minimum(vol, total - vol), vol)
    phi = np.divide(cut, side, out=np.ones(n - 1), where=side > 0)
    best_t = int(np.argmin(phi))
    chosen = order[:best_t + 1]
    if float(G.degrees[chosen].sum()) > total / 2:
        chosen = order[best_t + 1:]
    chosen = np.sort(chosen)
    return SweepCut(chosen, _conductance(G, _member_mask(G, chosen)))
