"""Command-line interface.

Subcommands: analyze, gfun-table, simulate, contour, local-ball, verify.
Flags override a plain key=value config file; identical configurations
(including the worker count) produce byte-identical output.  JSON output is
compact, key-sorted and on a single line (``python -m json.tool`` indents
it), at schema version 3: networks and local-ball vertices carry each
decoration as per-lineage columns (see `network.ColorNetwork.to_json_dict`).
Schema 3 drops two keys of schema 2: the local ball's ``weight`` (its draws
are exact and unweighted) and ``config.method`` (there is one network
sampler).
Exit codes: 0 success, 1 check failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, analytics, limits, network, verify
from .errors import (
    DivergentTailError,
    EventCapError,
    GlueError,
    NumericalFailure,
    PoleError,
    RetryBudgetError,
)
from .model import simulate_trajectory
from .params import ModelParams
from .rng import RngStream

SCHEMA_VERSION = 3

NUMERIC_ERRORS = (
    PoleError,
    DivergentTailError,
    NumericalFailure,
    RetryBudgetError,
    EventCapError,
    GlueError,
)


@dataclass
class RunConfig:
    alpha: float = 1.0
    beta: float = 1.0
    mu: float = 1.0
    n: int = 50
    seed: int = 42
    samples: int = 20_000
    tol: float = 1e-12
    format: str = "json"
    out: str | None = None
    workers: int = 1

    @property
    def params(self) -> ModelParams:
        return ModelParams(self.alpha, self.beta, self.mu)

    def header(self) -> dict:
        # workers is omitted: it never affects results (per-replicate streams,
        # fixed reduction order), so output stays byte-identical across counts
        return {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "config": {
                "alpha": self.alpha,
                "beta": self.beta,
                "mu": self.mu,
                "n": self.n,
                "seed": self.seed,
                "samples": self.samples,
                "tol": self.tol,
            },
        }


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    casts = {
        "alpha": float, "beta": float, "mu": float, "tol": float,
        "n": int, "seed": int, "samples": int, "workers": int,
        "format": str, "out": str,
    }
    for key, cast in casts.items():
        if key in file_vals:
            setattr(cfg, key, cast(file_vals[key]))
        flag = getattr(args, key, None)
        if flag is not None:
            setattr(cfg, key, flag)
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    # without an indent, json.dumps runs the C encoder
    _emit(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n", out)


def _csv_text(header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _enclosure_dict(cv, method: str) -> dict:
    return {
        "lower": cv.lower,
        "upper": cv.upper,
        "value": cv.midpoint,
        "error": cv.width,
        "depth": cv.depth,
        "certified": cv.certified,
        "method": method,
    }


def cmd_analyze(cfg: RunConfig) -> int:
    p = cfg.params
    em = analytics.expected_M(p, cfg.tol)
    pe = analytics.extinction_probability(p, max(cfg.tol, 1e-12))
    lo, hi = analytics.simple_pext_bounds(p)
    tilt = analytics.zeta_tilt(p)
    lam = analytics.malthusian(p)
    nu = analytics.nu_circ_pmf(p)
    cc = limits.crt_constants(p, RngStream(cfg.seed), n_samples=cfg.samples)
    out = cfg.header()
    out["analysis"] = {
        "expected_M": _enclosure_dict(em, "series"),
        "extinction_probability": _enclosure_dict(pe, "fixed-point"),
        "extinction_simple_bounds": {"lower": lo, "upper": hi, "method": "closed-form"},
        "tilt": {
            "zeta": tilt.zeta,
            "E_zetaM": tilt.E_zetaM,
            "sigma_hat_sq": tilt.sigma_hat_sq,
            "radius_hint": tilt.radius_hint,
            "method": "bisection",
        },
        "malthusian_rate": {"value": lam, "method": "bisection", "error": 1e-10},
        "nu_circ_head": list(np.round(nu.probs[:8], 15)),
        "crt_constants": cc.to_json_dict(),
    }
    if cfg.format == "csv":
        rows = [
            ["expected_M", em.midpoint, em.width],
            ["p_ext", pe.midpoint, pe.width],
            ["p_ext_lower_bound", lo, 0.0],
            ["p_ext_upper_bound", hi, 0.0],
            ["zeta", tilt.zeta, 0.0],
            ["sigma_hat_sq", tilt.sigma_hat_sq, 0.0],
            ["lambda", lam, 1e-10],
            ["EUstar", cc.EUstar.value, cc.EUstar.std_error],
            ["ell", cc.ell.value, cc.ell.std_error],
            ["C", cc.C.value, cc.C.std_error],
        ]
        _emit(_csv_text(["quantity", "value", "error"], rows), cfg.out)
    else:
        _emit_json(out, cfg.out)
    return 0


def cmd_gfun_table(cfg: RunConfig, depths: list, z_steps: int) -> int:
    p = cfg.params
    zs = [i / (z_steps - 1) for i in range(z_steps)]
    tables = []
    clip = lambda x: min(max(x, 0.0), 1.0)
    for n in depths:
        rows = []
        sup_gap = 0.0
        for z in zs:
            lo, hi = (clip(v) for v in analytics.convergent_pair(p, z, n))
            lo, hi = min(lo, hi), max(lo, hi)
            rows.append({"z": z, "lower": lo, "upper": hi, "gap": hi - lo})
            sup_gap = max(sup_gap, hi - lo)
        tables.append(
            {
                "depth": n,
                "sup_gap": sup_gap,
                "gap_majorant": analytics.gap_majorant(p, n),
                "rows": rows,
            }
        )
    if cfg.format == "csv":
        rows = []
        for t in tables:
            for r in t["rows"]:
                rows.append(
                    [t["depth"], r["z"], r["lower"], r["upper"], r["gap"], t["sup_gap"], t["gap_majorant"]]
                )
        _emit(
            _csv_text(["depth", "z", "lower", "upper", "gap", "sup_gap", "gap_majorant"], rows),
            cfg.out,
        )
    else:
        out = cfg.header()
        out["gfun_table"] = tables
        _emit_json(out, cfg.out)
    return 0


def cmd_simulate(cfg: RunConfig, count: int, kind: str) -> int:
    p = cfg.params
    if kind == "trajectory":
        items = [
            simulate_trajectory(p, max(cfg.n, 1), RngStream(cfg.seed, i)).to_json_dict()
            for i in range(count)
        ]
        out = cfg.header()
        out["trajectories"] = items
        _emit_json(out, cfg.out)
        return 0
    nets = [network.sample_network(p, cfg.n, RngStream(cfg.seed, i)) for i in range(count)]
    if cfg.format == "csv":
        chunks = [G.to_edge_csv() for G in nets]
        _emit("\n".join(chunks), cfg.out)
    elif cfg.format == "newick":
        _emit("\n".join(G.to_extended_newick() for G in nets) + "\n", cfg.out)
    else:
        out = cfg.header()
        out["networks"] = [G.to_json_dict() for G in nets]
        _emit_json(out, cfg.out)
    return 0


def cmd_contour(cfg: RunConfig, grid: int) -> int:
    p = cfg.params
    G = network.sample_network(p, cfg.n, RngStream(cfg.seed, 0))
    ts, hs, cols = network.contour(G, RngStream(cfg.seed, 1), grid)
    if cfg.format == "csv":
        rows = [[float(t), float(h)] for t, h in zip(ts, hs)]
        _emit(_csv_text(["t", "h"], rows), cfg.out)
    else:
        out = cfg.header()
        out["contour"] = {
            "grid_size": grid,
            "t": [float(t) for t in ts],
            "h": [float(h) for h in hs],
            "color_index": [int(c) for c in cols],
        }
        _emit_json(out, cfg.out)
    return 0


def cmd_local_ball(cfg: RunConfig, radius: int) -> int:
    p = cfg.params
    tilt = analytics.zeta_tilt(p)
    ball = limits.sample_local_ball(p, tilt.zeta, radius, RngStream(cfg.seed))
    out = cfg.header()
    out["local_ball"] = {
        "r": ball.r,
        "zeta": tilt.zeta,
        "focal_id": ball.focal_id,
        "spine_ids": list(ball.spine_ids),
        "vertices": [
            {
                "depth": v.depth,
                "outdegree": v.outdegree,
                "role": v.role,
                "attach_index": v.attach_index,
                "children": list(v.children),
                "decoration": v.decoration.to_json_dict(),
            }
            for v in ball.vertices
        ],
    }
    _emit_json(out, cfg.out)
    return 0


def cmd_verify(cfg: RunConfig, suite: str, scale: float, replicates: int) -> int:
    p = cfg.params
    if suite == "model":
        checks = verify.model_suite(p, cfg.seed, scale)
    elif suite == "analytics":
        checks = verify.analytics_suite(p, cfg.seed, scale)
    elif suite == "network":
        checks = verify.network_suite(p, cfg.seed, scale)
    elif suite == "crt":
        checks = verify.crt_suite(
            p,
            cfg.seed,
            n=cfg.n,
            replicates=replicates,
            n_samples=cfg.samples,
            workers=cfg.workers,
            trend_ns=(max(cfg.n // 4, 16), cfg.n, 4 * cfg.n),
            trend_reps=(
                max(replicates // 4, 8),
                max(replicates // 8, 6),
                max(replicates // 16, 4),
            ),
            maxh_n=2 * cfg.n,
            maxh_reps=max(replicates // 5, 8),
        )
    elif suite == "local":
        checks = verify.local_suite(
            p, cfg.seed, scale, n=cfg.n, n_networks=max(replicates, 50)
        )
    else:
        sys.stderr.write(f"unknown suite {suite!r}\n")
        return 2
    passed = all(c.passed for c in checks)
    out = cfg.header()
    out["suite"] = suite
    out["passed"] = passed
    out["checks"] = [c.to_json_dict() for c in checks]
    _emit_json(out, cfg.out)
    return 0 if passed else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="phylonetsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key=value config file; flags override")
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--beta", type=float)
        sp.add_argument("--mu", type=float)
        sp.add_argument("--n", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--samples", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--format", choices=["json", "csv", "newick"])
        sp.add_argument("--out")
        sp.add_argument("--workers", type=int)

    sp = sub.add_parser("analyze", help="closed-form and Monte Carlo summary")
    common(sp)
    sp = sub.add_parser("gfun-table", help="lower/upper convergents of the offspring pgf")
    common(sp)
    sp.add_argument("--depths", default="4,8,12,16,20,24")
    sp.add_argument("--z-steps", type=int, default=11)
    sp = sub.add_parser("simulate", help="sample networks (or trajectories)")
    common(sp)
    sp.add_argument("--count", type=int, default=1)
    sp.add_argument("--kind", choices=["network", "trajectory"], default="network")
    sp = sub.add_parser("contour", help="height process of a sampled network")
    common(sp)
    sp.add_argument("--grid", type=int, default=4096)
    sp = sub.add_parser("local-ball", help="sample the local weak limit ball")
    common(sp)
    sp.add_argument("--r", type=int, default=1)
    sp = sub.add_parser("verify", help="run a named verification suite")
    common(sp)
    sp.add_argument("--suite", required=True, choices=["model", "analytics", "network", "crt", "local"])
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--replicates", type=int, default=200)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "gfun-table":
            depths = [int(d) for d in args.depths.split(",") if d]
            return cmd_gfun_table(cfg, depths, args.z_steps)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.count, args.kind)
        if args.command == "contour":
            return cmd_contour(cfg, args.grid)
        if args.command == "local-ball":
            return cmd_local_ball(cfg, args.r)
        if args.command == "verify":
            return cmd_verify(cfg, args.suite, args.scale, args.replicates)
        ap.error(f"unknown command {args.command!r}")
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
