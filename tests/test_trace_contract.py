"""The benchmark tracer's name contract: perfbench/tracing.py rebinds module
names such as ``driver.refine_bucket`` and ``refine.sweep`` while a detect
runs, so each of them must stay bound, and tracing must not change what
detect returns."""

from pathlib import Path

import numpy as np
import pytest

from conftest import connected_random_instance
from tempocom import driver, refine
from tempocom.driver import RunConfig, detect

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def outputs(state):
    return (state.phi_star,
            [(c.nodes, c.interval, c.phi) for c in state.communities],
            [(v.interval, v.status, v.bound_value) for v in state.verdicts],
            [(d.interval, d.bound_half, d.phi_star_before, d.refined)
             for d in state.bucket_log])


def test_traced_detect_equals_untraced(tracing):
    rng = np.random.default_rng(173)
    g = connected_random_instance(rng, 16, 12, density=0.3)
    cfg = RunConfig(alpha=0.2)
    plain = detect(g, cfg)
    bound = {name: [getattr(obj, attr) for obj, attr in sites]
             for name, sites in tracing.SPANS.items()}
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = tracer.detect(g, cfg)
    assert outputs(traced) == outputs(plain)
    # the names are restored on exit
    assert bound == {name: [getattr(obj, attr) for obj, attr in sites]
                     for name, sites in tracing.SPANS.items()}
    assert driver.refine_bucket is refine.refine_bucket

    metrics = tracer.metrics()
    refined = sum(d.refined for d in plain.bucket_log)
    assert refined > 0
    assert metrics["driver.buckets_refined"][0] == refined
    for name in ("graph.aggregate", "spectral.interval_lambda2",
                 "tlsh.hash_all", "refine.rwr", "refine.fiedler_sweep"):
        assert metrics[f"{name}_calls"][0] > 0, name
