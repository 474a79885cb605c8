"""Output checks made apart from tempocom.

The instance is read by this module's own ``.tgraph`` parser, and every
quantity is recomputed with plain numpy: temporal conductance
eta * cut / min(vol), with eta = max(1, span) ** -alpha; connectivity of a
community in its interval's aggregated graph; and lambda2 of the normalized
Laplacian on the positive-volume nodes, by ``numpy.linalg.eigvalsh``.
Results are plain data (labels, intervals, floats), so these checks never
call into the program they judge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PRUNED = frozenset({"group-pruned", "composite-pruned", "exact-pruned"})
OPEN = frozenset({"unpruned", "probed"})

# reported and recomputed conductance sum the same weights in another order
PHI_RTOL = 1e-9
# verdict bounds may sit at the Cheeger value itself (tight on even cliques)
CHEEGER_TOL = 1e-9
# intervals whose verdict bounds are checked against an eigvalsh lambda2
SAMPLE_INTERVALS = 8


@dataclass(frozen=True)
class Community:
    labels: frozenset
    start: int
    end: int
    phi: float


@dataclass(frozen=True)
class Verdict:
    start: int
    end: int
    status: str
    bound: float


@dataclass(frozen=True)
class Result:
    """What one detect reports: the incumbent, the ranked communities and a
    verdict per interval."""
    phi_star: float
    communities: tuple
    verdicts: tuple


class Instance:
    """A temporal graph as read from ``.tgraph`` text: one entry per record,
    over node ids of this module's own numbering."""

    def __init__(self, n: int, T: int, index: dict, u, v, t, w):
        self.n, self.T, self.index = n, T, index
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.t = np.asarray(t, dtype=np.int64)
        self.w = np.asarray(w, dtype=np.float64)

    @classmethod
    def parse(cls, text: str) -> "Instance":
        header = None
        index: dict = {}
        u, v, t, w = [], [], [], []
        for line in text.splitlines():
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if header is None:
                if len(parts) != 3 or parts[0] != "tgraph":
                    raise ValueError(f"bad header {line!r}")
                header = (int(parts[1]), int(parts[2]))
                continue
            a, b, ts, ws = parts
            u.append(index.setdefault(a, len(index)))
            v.append(index.setdefault(b, len(index)))
            t.append(int(ts))
            w.append(float(ws))
        if header is None:
            raise ValueError("no tgraph header")
        return cls(header[0], header[1], index, u, v, t, w)

    @classmethod
    def read(cls, path) -> "Instance":
        with open(path, encoding="utf-8") as fh:
            return cls.parse(fh.read())

    def ids(self, labels) -> np.ndarray:
        """Own ids of node labels; a label without any record is no node
        that a community with edges can hold."""
        return np.array(sorted(self.index[lab] for lab in labels),
                        dtype=np.int64)

    def adjacency(self, start: int, end: int) -> np.ndarray:
        """Dense symmetric weights aggregated over [start, end]."""
        sel = (self.t >= start) & (self.t <= end)
        n = self.n
        flat = np.bincount(self.u[sel] * n + self.v[sel], weights=self.w[sel],
                           minlength=n * n)
        adj = flat.reshape(n, n)
        return adj + adj.T


def eta(start: int, end: int, alpha: float) -> float:
    return float(max(1, end - start)) ** -alpha


def conductance(adj: np.ndarray, members: np.ndarray, eta_: float) -> float:
    """eta * cut / min(vol(S), vol(rest)); inf when that minimum is 0."""
    mask = np.zeros(len(adj), dtype=bool)
    mask[members] = True
    vol = adj.sum(axis=1)
    cut = adj[mask][:, ~mask].sum()
    denom = min(vol[mask].sum(), vol[~mask].sum())
    return math.inf if denom <= 0 else eta_ * float(cut) / float(denom)


def connected(adj: np.ndarray, members: np.ndarray) -> bool:
    """Whether the members induce a connected subgraph of positive weights."""
    if len(members) == 0:
        return False
    linked = adj[np.ix_(members, members)] > 0
    reached = np.zeros(len(members), dtype=bool)
    reached[0] = True
    while True:
        grown = reached | linked[reached].any(axis=0)
        if grown.sum() == reached.sum():
            return bool(reached.all())
        reached = grown


def lambda2(adj: np.ndarray) -> float:
    """Second-smallest eigenvalue of I - D^-1/2 A D^-1/2 on the nodes of
    positive volume; 0 with fewer than two such nodes."""
    vol = adj.sum(axis=1)
    support = np.flatnonzero(vol > 0)
    if len(support) < 2:
        return 0.0
    dinv = 1.0 / np.sqrt(vol[support])
    lap = np.eye(len(support)) - (dinv[:, None] * adj[np.ix_(support, support)]
                                  * dinv[None, :])
    return float(np.linalg.eigvalsh(lap)[1])


def sample_intervals(T: int) -> list[tuple[int, int]]:
    """A fixed sample of intervals of [0, T): the same for every run."""
    every = [(a, b) for a in range(T) for b in range(a, T)]
    picks = np.random.default_rng(0).choice(
        len(every), min(SAMPLE_INTERVALS, len(every)), replace=False)
    return [every[i] for i in sorted(picks)]


def check_result(inst: Instance, res: Result, alpha: float,
                 planted: Community | None = None) -> list[str]:
    """Every way the result disagrees with the recomputed truth; empty when
    it is correct."""
    errors: list[str] = []
    if not res.communities:
        errors.append("no community reported")
    for c in res.communities:
        where = f"community on [{c.start}, {c.end}]"
        try:
            ids = inst.ids(c.labels)
        except KeyError as err:
            errors.append(f"{where}: unknown node {err}")
            continue
        if not 0 < len(ids) < inst.n:
            errors.append(f"{where}: {len(ids)} nodes is no nonempty proper "
                          f"subset of {inst.n}")
            continue
        adj = inst.adjacency(c.start, c.end)
        if not connected(adj, ids):
            errors.append(f"{where}: not connected in its interval")
        phi = conductance(adj, ids, eta(c.start, c.end, alpha))
        if not math.isclose(phi, c.phi, rel_tol=PHI_RTOL, abs_tol=1e-12):
            errors.append(f"{where}: reported phi {c.phi!r}, recomputed {phi!r}")

    phi_star = res.phi_star
    if res.communities and not math.isclose(phi_star, res.communities[0].phi,
                                            rel_tol=1e-12, abs_tol=0.0):
        errors.append(f"phi_star {phi_star!r} is not the top community's "
                      f"phi {res.communities[0].phi!r}")
    if planted is not None:
        truth = conductance(inst.adjacency(planted.start, planted.end),
                            inst.ids(planted.labels),
                            eta(planted.start, planted.end, alpha))
        if not phi_star <= truth * (1 + PHI_RTOL):
            errors.append(f"phi_star {phi_star!r} above the planted "
                          f"community's {truth!r}")

    T = inst.T
    by_interval = {(v.start, v.end): v for v in res.verdicts}
    expected = {(a, b) for a in range(T) for b in range(a, T)}
    if len(res.verdicts) != len(expected) or set(by_interval) != expected:
        errors.append(f"{len(res.verdicts)} verdicts over "
                      f"{len(set(by_interval) & expected)} of the "
                      f"{len(expected)} intervals")
    for v in res.verdicts:
        if v.status in PRUNED:
            ok = v.bound > phi_star
        elif v.status in OPEN:
            ok = v.bound <= phi_star
        else:
            errors.append(f"[{v.start}, {v.end}]: unknown status {v.status!r}")
            continue
        if not ok:
            errors.append(f"[{v.start}, {v.end}] {v.status} with bound "
                          f"{v.bound!r} against phi_star {phi_star!r}")

    for a, b in sample_intervals(T):
        v = by_interval.get((a, b))
        if v is None:
            continue
        cheeger = eta(a, b, alpha) * lambda2(inst.adjacency(a, b)) / 2.0
        if not v.bound <= cheeger + CHEEGER_TOL:
            errors.append(f"[{a}, {b}] bound {v.bound!r} above the Cheeger "
                          f"value {cheeger!r}")
    return errors
