"""Normalized Laplacian spectra of aggregated graphs and the Cheeger-style bound."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .graph import (AggregatedGraph, Interval, NormalizationConfig,
                    TemporalGraph, aggregate, dense_adjacency, eta)

DEFAULT_TOL = 1e-8

# Up to this many nodes interval_lambda2 is one dense LAPACK solve, above it
# ARPACK on the sparse matrix. scripts/eig_crossover.py, one BLAS thread on a
# 2-core x86 machine, ms per solve of a snapshot / an 8-timestamp aggregate:
# at 300 nodes LAPACK 5.8/6.0 against ARPACK 6.0/5.6 on a sparse graph
# (attachment 10) and 6.4/5.0 against 12.9/8.9 on a dense one (attachment
# 90); at 400 nodes ARPACK is 1.5-1.8x faster on the sparse graph (4-5x at
# 600-800), while LAPACK stays faster on dense snapshots up to 800 nodes.
DENSE_MAX_NODES = 300

# Absolute slack taken off a computed lambda2 before it bounds any
# conductance: eigensolver errors are O(n * eps * ||L||) with ||L|| <= 2, and
# the Cheeger bound can be tight (even cliques), so an unslackened bound could
# round above the optimum.
LAMBDA2_SLACK = 1e-10


class EigenSolveError(RuntimeError):
    """The eigensolver failed to converge."""


@dataclass(frozen=True)
class EigResult:
    """lambda2 of the positive-volume support with its Fiedler vector
    ``fiedler``: the eigenvector scaled by D^{-1/2}, over all nodes, 0 on
    zero-volume nodes; None when the support has fewer than two nodes.
    Sweeping it is Cheeger's inequality made constructive."""
    lambda2: float
    residual: float
    iterations: int
    fiedler: np.ndarray | None = field(default=None, compare=False, repr=False)


def normalized_laplacian(ag: AggregatedGraph) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """Symmetric normalized Laplacian restricted to positive-volume nodes.

    Returns (N, support_index, sqrt_volumes_on_support). Zero-volume nodes
    have no well-defined D^{-1/2} entry; they change neither cut nor volume
    of any set, so the support's spectrum bounds every node set.
    """
    support = np.flatnonzero(ag.volumes > 0)
    adj = ag.adjacency[support][:, support].tocsr()
    vols = ag.volumes[support]
    dinv = 1.0 / np.sqrt(vols)
    norm_adj = sp.diags(dinv) @ adj @ sp.diags(dinv)
    lap = sp.identity(len(support), format="csr") - norm_adj
    return lap.tocsr(), support, np.sqrt(vols)


def lambda2(ag: AggregatedGraph, tol: float = DEFAULT_TOL,
            seed: int | None = None) -> EigResult:
    """Second-smallest eigenvalue of the normalized Laplacian on the
    positive-volume support, by ARPACK: the largest eigenvalue of 2I - L on
    the complement of the null vector D^{1/2}1, converged to ``tol``.

    The contract is exact_lambda2's. A disconnected support returns
    lambda2 = 0 exactly without solving, with a Fiedler vector that separates
    one component from the rest. ``iterations`` counts operator products.
    """
    if ag.n < 2:
        raise ValueError("need at least 2 nodes")
    lap, support, dsqrt = normalized_laplacian(ag)
    ns = len(support)
    if ns < 2:
        return EigResult(lambda2=0.0, residual=0.0, iterations=0)
    k, labels = connected_components(lap, directed=False)
    if k > 1:
        # D-orthogonal to 1 and constant on each component: a null vector
        vols = ag.volumes[support]
        first = labels == 0
        f = np.where(first, vols[~first].sum(), -vols[first].sum())
        return EigResult(lambda2=0.0, residual=0.0, iterations=0,
                         fiedler=_embed(ag.n, support, f))
    if ns == 2:
        # one edge: the spectrum is {0, 2}, so on 2I - L the Fiedler vector's
        # eigenvalue ties with the projected-out null vector's
        x = np.array([dsqrt[1], -dsqrt[0]]) / np.linalg.norm(dsqrt)
        return EigResult(lambda2=2.0, residual=0.0, iterations=0,
                         fiedler=_embed(ag.n, support, x / dsqrt))

    d = dsqrt / np.linalg.norm(dsqrt)
    matvecs = 0

    def shifted(v: np.ndarray) -> np.ndarray:
        nonlocal matvecs
        matvecs += 1
        v = v - (d @ v) * d
        w = 2.0 * v - lap @ v
        return w - (d @ w) * d

    if seed is None:
        seed = 0x5eed ^ (ag.interval.start * 1_000_003 + ag.interval.end)
    v0 = np.random.default_rng(seed).standard_normal(ns)
    v0 -= (d @ v0) * d
    try:
        vals, vecs = eigsh(LinearOperator((ns, ns), matvec=shifted,
                                          dtype=np.float64),
                           k=1, which="LA", v0=v0, tol=tol)
    except ArpackError as err:
        raise EigenSolveError(f"ARPACK eigensolve failed: {err}") from err
    theta, x = 2.0 - float(vals[0]), vecs[:, 0]
    res = float(np.linalg.norm(lap @ x - theta * x))
    return EigResult(lambda2=max(theta, 0.0), residual=res,
                     iterations=matvecs,
                     fiedler=_embed(ag.n, support, x / dsqrt))


def _embed(n: int, support: np.ndarray, values: np.ndarray) -> np.ndarray:
    out = np.zeros(n)
    out[support] = values
    return out


def exact_lambda2(adj: np.ndarray) -> EigResult:
    """lambda2 and Fiedler vector of a dense symmetric adjacency by one LAPACK
    solve, restricted to the positive-volume support.

    Zero-volume nodes change neither cut nor volume of any set, so the
    support's Cheeger bound holds for every node set. A disconnected support
    yields lambda2 = 0 up to rounding, with a Fiedler vector that separates
    components.
    """
    vols = adj.sum(axis=1)
    support = np.flatnonzero(vols > 0)
    ns = len(support)
    if ns < 2:
        return EigResult(lambda2=0.0, residual=0.0, iterations=0)
    if ns < len(vols):
        adj = adj[np.ix_(support, support)]
    dinv = 1.0 / np.sqrt(vols[support])
    lap = np.eye(ns) - dinv[:, None] * adj * dinv[None, :]
    try:
        vals, vecs = sla.eigh(lap, subset_by_index=[1, 1])
    except np.linalg.LinAlgError as err:
        raise EigenSolveError(f"LAPACK eigensolve failed: {err}") from err
    theta, x = float(vals[0]), vecs[:, 0]
    res = float(np.linalg.norm(lap @ x - theta * x))
    return EigResult(lambda2=max(theta, 0.0), residual=res, iterations=1,
                     fiedler=_embed(len(vols), support, x * dinv))


def interval_lambda2(g: TemporalGraph, iv: Interval) -> EigResult:
    """Certified lower bound on lambda2 of g aggregated over iv, with its
    Fiedler vector: the solver's value less max(LAMBDA2_SLACK, residual),
    clamped at 0. A disconnected support gets exactly 0: ARPACK's path
    returns 0 for it without solving, and LAPACK's rounding error,
    O(n * eps), stays far below the slack.

    Dense LAPACK up to DENSE_MAX_NODES nodes, ARPACK above.
    """
    if g.n <= DENSE_MAX_NODES:
        res = exact_lambda2(dense_adjacency(g, iv))
    else:
        res = lambda2(aggregate(g, iv))
    lam = max(res.lambda2 - max(LAMBDA2_SLACK, res.residual), 0.0)
    return replace(res, lambda2=lam)


def lambda2_dense(ag: AggregatedGraph) -> float:
    """Dense eigendecomposition oracle for the same quantity (small n only)."""
    lap, support, _ = normalized_laplacian(ag)
    if len(support) < 2 or connected_components(
            lap, directed=False, return_labels=False) > 1:
        return 0.0
    return float(np.linalg.eigvalsh(lap.toarray())[1])


def cheeger_lower_bound(ag: AggregatedGraph, cfg: NormalizationConfig) -> float:
    """eta(interval) * lambda2 / 2, a lower bound on any subset's conductance."""
    return eta(ag.interval, cfg) * lambda2(ag).lambda2 / 2.0
