"""The benchmark's own output checks, on graphs with hand-computed answers.

Run with: python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from checks import (Community, Instance, Result, Verdict, check_result,
                    conductance, connected, eta, lambda2)

ALPHA = 0.2


def instance(n: int, T: int, edges, times=None) -> Instance:
    """Unit-weight edges active at every timestamp in ``times`` (all T by
    default)."""
    times = range(T) if times is None else times
    lines = [f"tgraph {n} {T}"]
    lines += [f"{u} {v} {t} 1" for u, v in edges for t in times]
    return Instance.parse("\n".join(lines))


def ids(inst: Instance, labels) -> list[int]:
    return list(inst.ids(labels))


PATH4 = [("a", "b"), ("b", "c"), ("c", "d")]
CLIQUE4 = [(u, v) for i, u in enumerate("abcd") for v in "abcd"[i + 1:]]
# triangles {a1, a2, a3} and {b1, b2, b3} joined by the edge a3-b3
TWO_TRIANGLES = [("a1", "a2"), ("a1", "a3"), ("a2", "a3"),
                 ("b1", "b2"), ("b1", "b3"), ("b2", "b3"), ("a3", "b3")]
# antisymmetric eigenvector with x(a1) = x(a2) = p, x(a3) = q:
# p - q = 2 lambda p and 4q - 2p = 3 lambda q give 6 lambda^2 - 11 lambda + 2 = 0
TWO_TRIANGLES_LAMBDA2 = (11 - math.sqrt(73)) / 12


class TestHandComputed:
    def test_path(self):
        inst = instance(4, 1, PATH4)
        adj = inst.adjacency(0, 0)
        # normalized Laplacian of P_n: 1 - cos(pi k / (n - 1))
        assert lambda2(adj) == pytest.approx(0.5, abs=1e-12)
        # cut 1 over volumes 1 + 2 on each side
        assert conductance(adj, ids(inst, "ab"), 1.0) == pytest.approx(1 / 3)
        assert conductance(adj, ids(inst, "a"), 1.0) == pytest.approx(1.0)
        assert connected(adj, ids(inst, "abc"))
        assert not connected(adj, ids(inst, "ac"))

    def test_clique(self):
        inst = instance(4, 1, CLIQUE4)
        adj = inst.adjacency(0, 0)
        assert lambda2(adj) == pytest.approx(4 / 3, abs=1e-12)
        # cut 4 over volumes 6 and 6
        assert conductance(adj, ids(inst, "ab"), 1.0) == pytest.approx(2 / 3)
        assert connected(adj, ids(inst, "ad"))

    def test_two_cliques_joined_by_one_edge(self):
        inst = instance(6, 3, TWO_TRIANGLES)
        # aggregation over three unit timestamps scales every weight by 3,
        # which changes neither lambda2 nor conductance
        adj = inst.adjacency(0, 2)
        assert lambda2(adj) == pytest.approx(TWO_TRIANGLES_LAMBDA2, abs=1e-12)
        # cut 1 over volumes 2 + 2 + 3 on each side, discounted by 2**-alpha
        phi = conductance(adj, ids(inst, ["a1", "a2", "a3"]), eta(0, 2, ALPHA))
        assert phi == pytest.approx(2 ** -ALPHA / 7)
        assert not connected(adj, ids(inst, ["a1", "b1"]))
        # the Cheeger inequality holds on the known optimum
        assert lambda2(adj) / 2 <= 1 / 7

    def test_edges_only_in_part_of_the_timeline(self):
        inst = instance(4, 3, PATH4, times=[1])
        assert not inst.adjacency(0, 0).any()
        assert lambda2(inst.adjacency(0, 0)) == 0.0
        assert conductance(inst.adjacency(0, 0), ids(inst, "ab"), 1.0) == math.inf
        assert lambda2(inst.adjacency(0, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_eta(self):
        assert eta(3, 3, ALPHA) == 1.0
        assert eta(3, 4, ALPHA) == 1.0
        assert eta(0, 9, ALPHA) == pytest.approx(9 ** -ALPHA)


def two_triangles_result() -> tuple[Instance, Result, Community]:
    """A correct detect result on two triangles over T=3: the best community
    is a triangle on [0, 2]; no bound exceeds it, so nothing is pruned."""
    inst = instance(6, 3, TWO_TRIANGLES)
    phi_star = 2 ** -ALPHA / 7
    top = Community(frozenset({"a1", "a2", "a3"}), 0, 2, phi_star)
    verdicts = tuple(
        Verdict(a, b, "unpruned",
                0.9 * eta(a, b, ALPHA) * TWO_TRIANGLES_LAMBDA2 / 2)
        for a in range(3) for b in range(a, 3))
    planted = Community(frozenset({"b1", "b2", "b3"}), 0, 2, math.nan)
    return inst, Result(phi_star, (top,), verdicts), planted


class TestCheckResult:
    def test_correct_result_passes(self):
        inst, res, planted = two_triangles_result()
        assert check_result(inst, res, ALPHA, planted=planted) == []

    def test_phi_off_by_one_percent_is_rejected(self):
        inst, res, planted = two_triangles_result()
        top = res.communities[0]
        wrong = dataclasses.replace(top, phi=top.phi * 1.01)
        res = dataclasses.replace(res, phi_star=wrong.phi, communities=(wrong,))
        errors = check_result(inst, res, ALPHA)
        assert any("recomputed" in e for e in errors)

    def test_disconnected_community_is_rejected(self):
        inst, res, planted = two_triangles_result()
        members = ["a1", "b1"]
        adj = inst.adjacency(0, 2)
        phi = conductance(adj, ids(inst, members), eta(0, 2, ALPHA))
        bad = Community(frozenset(members), 0, 2, phi)
        res = dataclasses.replace(res, communities=res.communities + (bad,))
        errors = check_result(inst, res, ALPHA)
        assert errors and all("not connected" in e for e in errors)

    def test_pruned_bound_above_cheeger_value_is_rejected(self):
        inst, res, planted = two_triangles_result()
        # above the incumbent, as a pruned bound must be, but above
        # eta * lambda2 / 2 too: pruning there would be unsound
        verdicts = [Verdict(1, 2, "exact-pruned", res.phi_star * 1.05)
                    if (v.start, v.end) == (1, 2) else v for v in res.verdicts]
        res = dataclasses.replace(res, verdicts=tuple(verdicts))
        errors = check_result(inst, res, ALPHA)
        assert errors and all("Cheeger" in e for e in errors)

    def test_unpruned_bound_above_incumbent_is_rejected(self):
        inst, res, planted = two_triangles_result()
        verdicts = list(res.verdicts)
        verdicts[0] = Verdict(0, 0, "unpruned", res.phi_star * 2)
        res = dataclasses.replace(res, verdicts=tuple(verdicts))
        errors = check_result(inst, res, ALPHA)
        assert any("unpruned with bound" in e for e in errors)

    def test_missing_verdict_is_rejected(self):
        inst, res, planted = two_triangles_result()
        res = dataclasses.replace(res, verdicts=res.verdicts[:-1])
        assert any("verdicts over" in e
                   for e in check_result(inst, res, ALPHA))

    def test_incumbent_above_planted_is_rejected(self):
        inst, res, _ = two_triangles_result()
        # {a1, a2}: cut 2 over volume 4 on [0, 2], far above the triangle
        planted = Community(frozenset({"a1", "a2", "a3"}), 0, 2, math.nan)
        worse = Community(frozenset({"a1", "a2"}), 0, 2,
                          eta(0, 2, ALPHA) * 2 / 4)
        res = dataclasses.replace(res, phi_star=worse.phi, communities=(worse,))
        errors = check_result(inst, res, ALPHA, planted=planted)
        assert any("planted" in e for e in errors)
