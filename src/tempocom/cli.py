"""Command-line interface: detect, generate, prune, bounds, oracle, hash-calibrate."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .graph import Interval, NormalizationConfig, TemporalGraph, eta, load
from .driver import RunConfig, detect, estimate_initial, sweep_open_intervals
from .oracle import InstanceTooLargeError, brute_force_best
from .pruning import Pruner, Verdicts, build_groups, precompute
from .spectral import EigenSolveError, interval_lambda2
from .synth import SynthConfig, generate
from .tlsh import composite_collision_count, weighted_jaccard

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3


class InputError(Exception):
    """Input or parameters rejected before any computation; exit status 2."""


@contextlib.contextmanager
def _checking_input():
    """Report a ValueError raised while the input is read and the parameters
    are checked as an input error. One raised later, from inside the
    pipeline, is a fault of the program and propagates."""
    try:
        yield
    except ValueError as err:  # GraphFormatError included
        raise InputError(err) from err


def _load_with_edges(path) -> TemporalGraph:
    g = load(path)
    if g.n_edges == 0:
        raise ValueError(f"{path}: the graph has no edges")
    return g


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _community_record(g, c) -> dict:
    return {
        "nodes": sorted(g.labels[u] for u in c.nodes),
        "t": c.interval.start,
        "t_end": c.interval.end,
        "phi": c.phi,
    }


def _write_verdicts(fh, verdicts) -> None:
    fh.write("start,length,status,bound\n")
    for v in verdicts:
        fh.write(f"{v.interval.start},{v.interval.length},"
                 f"{v.status},{v.bound_value:.12g}\n")


def cmd_detect(args) -> int:
    with _checking_input():
        g = _load_with_edges(args.input)
        cfg = RunConfig(alpha=args.alpha, scale_base=args.scale_base,
                        beta=args.beta, rows=args.rows, bands=args.bands,
                        topk=args.topk, seed=args.seed, threads=args.threads,
                        min_entries=args.min_entries, span_cap=args.span_cap)
    state = detect(g, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "communities.jsonl", "w", encoding="utf-8") as fh:
        for c in state.communities:
            fh.write(_json_line(_community_record(g, c)) + "\n")
    with open(out / "verdicts.csv", "w", encoding="utf-8") as fh:
        _write_verdicts(fh, state.verdicts)
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump({
            "config": {
                "alpha": cfg.alpha, "scale_base": cfg.scale_base,
                "beta": cfg.beta, "rows": cfg.rows, "bands": cfg.bands,
                "topk": cfg.topk, "seed": cfg.seed, "threads": cfg.threads,
                "min_entries": cfg.min_entries, "span_cap": cfg.span_cap,
            },
            "phi_star": state.phi_star,
            "timings": state.timings,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_generate(args) -> int:
    with _checking_input():
        cfg = SynthConfig(n=args.nodes, attachment=args.attachment,
                          timeline=args.timeline, mean_weight=args.mean_weight,
                          planted_nodes=args.planted_nodes,
                          planted_length=args.planted_length,
                          contrast=args.contrast, seed=args.seed)
    g, truth = generate(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(f"tgraph {g.n} {g.T}\n")
        for e in range(g.n_edges):
            u, v = g.labels[g.edge_u[e]], g.labels[g.edge_v[e]]
            row = g.weights[e]
            for t in range(g.T):
                if row[t] > 0:
                    fh.write(f"{u} {v} {t} {row[t]:.12g}\n")
    sidecar = Path(args.out).with_suffix(".truth.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({
            "nodes": sorted(g.labels[u] for u in truth.nodes),
            "t": truth.interval.start,
            "t_end": truth.interval.end,
        }, fh, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_prune(args) -> int:
    phi_star = args.phi_star
    with _checking_input():
        g = _load_with_edges(args.input)
        cfg = RunConfig(alpha=args.alpha, scale_base=args.scale_base,
                        beta=args.beta, seed=args.seed, threads=args.threads)
        if phi_star is not None and not 0 <= phi_star < math.inf:
            raise ValueError(f"--phi-star {phi_star} is not a finite "
                             "nonnegative conductance")
    bt = precompute(g, cfg.scale_base, threads=cfg.threads)
    if phi_star is None:
        phi_star, _ = estimate_initial(g, bt, cfg)
    # a zero incumbent is optimal already: detect's all-unpruned table
    verdicts = Verdicts(g.T)
    if phi_star != 0:
        pruner = Pruner(bt, build_groups(g.T, cfg.beta), cfg.norm())
        verdicts, phi_star = pruner.judge(
            phi_star, on_open=sweep_open_intervals(g, cfg.norm()))
    print(f"verdicts judged against phi_star={phi_star:.12g}", file=sys.stderr)
    _write_verdicts(sys.stdout, verdicts)
    return 0


def cmd_bounds(args) -> int:
    with _checking_input():
        g = load(args.input)
        norm = NormalizationConfig(args.alpha)
    print("start,end,lambda2,bound")
    for t in range(g.T):
        for t2 in range(t, g.T):
            iv = Interval(t, t2)
            lam = interval_lambda2(g, iv).lambda2
            print(f"{t},{t2},{lam:.12g},{eta(iv, norm) * lam / 2.0:.12g}")
    return 0


def cmd_oracle(args) -> int:
    with _checking_input():
        g = _load_with_edges(args.input)
        norm = NormalizationConfig(args.alpha)
    best = brute_force_best(g, norm)
    print(_json_line(_community_record(g, best)))
    return 0


def cmd_hash_calibrate(args) -> int:
    with _checking_input():
        if min(args.timeline, args.rows, args.trials) < 1 or args.pivots < 0:
            raise ValueError("--timeline, --rows and --trials must be positive "
                             "and --pivots nonnegative")
    T = args.timeline
    print("jaccard,delta_frac,r,k,empirical,theoretical")
    jaccards = [0.2, 0.4, 0.6, 0.8]
    delta_fracs = [0.05, 0.1, 0.2, 0.4]
    for j in jaccards:
        wa = {0: 1.0}
        wb = {0: 1.0, 1: 1.0 / j - 1.0}
        for frac in delta_fracs:
            dt = max(1, round(frac * T))
            for (r, k) in [(args.rows, args.pivots), (2, args.pivots), (args.rows, 2 * args.pivots)]:
                hits = composite_collision_count(
                    wa, wb, dt, T, r, k, args.trials, seed=[args.seed, int(j * 10), dt, r, k])
                theory = weighted_jaccard(wa, wb) ** r * (1 - dt / T) ** k
                print(f"{j},{frac},{r},{k},{hits / args.trials:.6f},{theory:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tempocom",
                                description="Lowest temporal-conductance community search")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("detect", help="run the full detection pipeline")
    d.add_argument("--input", required=True)
    d.add_argument("--alpha", type=float, default=0.0)
    d.add_argument("--scale-base", type=int, default=2)
    d.add_argument("--beta", type=float, default=0.5)
    d.add_argument("--rows", type=int, default=4)
    d.add_argument("--bands", type=int, default=4)
    d.add_argument("--topk", type=int, default=10)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--threads", type=int, default=1)
    d.add_argument("--min-entries", type=int, default=2,
                   help="minimum bucket size kept for refinement")
    d.add_argument("--span-cap", type=float, default=2.0,
                   help="skip buckets spanning more than this multiple of the hash scale")
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_detect)

    gen = sub.add_parser("generate", help="write a synthetic benchmark instance")
    gen.add_argument("--out", required=True)
    gen.add_argument("--nodes", type=int, default=1000)
    gen.add_argument("--attachment", type=int, default=5)
    gen.add_argument("--timeline", type=int, default=100)
    gen.add_argument("--mean-weight", type=float, default=5.0)
    gen.add_argument("--planted-nodes", type=int, default=20)
    gen.add_argument("--planted-length", type=int, default=10)
    gen.add_argument("--contrast", type=float, default=8.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    pr = sub.add_parser("prune", help="emit the interval pruning heatmap CSV")
    pr.add_argument("--input", required=True)
    pr.add_argument("--alpha", type=float, default=0.0)
    pr.add_argument("--scale-base", type=int, default=2)
    pr.add_argument("--beta", type=float, default=0.5)
    pr.add_argument("--phi-star", type=float, default=None,
                    help="incumbent conductance; estimated when omitted, and "
                         "lowered by communities the exact tier's sweeps find")
    pr.add_argument("--seed", type=int, default=0)
    pr.add_argument("--threads", type=int, default=1)
    pr.set_defaults(func=cmd_prune)

    b = sub.add_parser("bounds", help="per-interval lambda2 and Cheeger bound CSV")
    b.add_argument("--input", required=True)
    b.add_argument("--alpha", type=float, default=0.0)
    b.set_defaults(func=cmd_bounds)

    o = sub.add_parser("oracle", help="brute-force optimum (desk-scale only)")
    o.add_argument("--input", required=True)
    o.add_argument("--alpha", type=float, default=0.0)
    o.set_defaults(func=cmd_oracle)

    h = sub.add_parser("hash-calibrate",
                       help="empirical vs theoretical collision curves CSV")
    h.add_argument("--timeline", type=int, default=100)
    h.add_argument("--rows", type=int, default=4)
    h.add_argument("--pivots", type=int, default=20)
    h.add_argument("--trials", type=int, default=10_000)
    h.add_argument("--seed", type=int, default=0)
    h.set_defaults(func=cmd_hash_calibrate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FileNotFoundError, InstanceTooLargeError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EigenSolveError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
