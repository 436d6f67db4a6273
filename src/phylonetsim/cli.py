"""Command-line interface.

Subcommands: analyze, gfun-table, simulate, contour, local-ball, verify.
Each accepts only the options it reads (``COMMANDS``), and ``verify`` only
those of its ``--suite`` (``SUITES``).  The ``key=value`` lines of a
``--config`` file are read as ``--key=value`` flags in front of those of
the command line, which win.  Identical configurations (including the
worker count) produce byte-identical output.

JSON output is compact, key-sorted and on a single line (``python -m
json.tool`` indents it), at schema version 5.  A network is written as its
``tree``, its ``glue`` list and its ``decorations``: one object of
network-wide columns, the lineage offsets of the colors and the
per-lineage columns concatenated, with color-local lineage ids (see
`network.Decorations.to_json_dict`; schema 4 wrote one object per color).
A local-ball vertex carries its decoration as per-lineage columns and a
focal point (see `network.ColorNetwork.to_json_dict`).  Schema 3 dropped
the local ball's ``weight`` (its draws are exact and unweighted) and
``config.method`` (there is one network sampler).  In schema 4,
``config`` holds every option the command and its suite read, less
``config``, ``out``, ``format`` and ``workers``, which change no result;
``verify``'s ``suite`` moves into it.
Exit codes: 0 success, 1 check failure, 2 usage error (an option the
command does not read, a bad config line, an out-of-range value), 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import asdict

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

SCHEMA_VERSION = 5

NUMERIC_ERRORS = (
    PoleError,
    DivergentTailError,
    NumericalFailure,
    RetryBudgetError,
    EventCapError,
    GlueError,
)

# suite -> (function, the options it reads after params and seed, in its argument order)
SUITES = {
    "model": (verify.model_suite, ("scale",)),
    "analytics": (verify.analytics_suite, ("scale",)),
    "network": (verify.network_suite, ("scale",)),
    "crt": (verify.crt_suite, ("n", "replicates", "samples", "workers")),
    "local": (verify.local_suite, ("scale", "n", "replicates")),
}
SUITE_OPTIONS = tuple(dict.fromkeys(o for _, reads in SUITES.values() for o in reads))


def _int_list(text: str) -> list:
    return [int(d) for d in text.split(",") if d]


# the argparse arguments of every option but config, out and format
OPTIONS = {
    "alpha": {"type": float, "default": 1.0},
    "beta": {"type": float, "default": 1.0},
    "mu": {"type": float, "default": 1.0},
    "seed": {"type": int, "default": 42},
    "n": {"type": int, "default": 50},
    "samples": {"type": int, "default": 20_000},
    "tol": {"type": float, "default": 1e-12},
    "scale": {"type": float, "default": 1.0},
    "replicates": {"type": int, "default": 200},
    "workers": {"type": int, "default": 1},
    "depths": {"type": _int_list, "default": "4,8,12,16,20,24"},
    "z-steps": {"type": int, "default": 11},
    "count": {"type": int, "default": 1},
    "kind": {"choices": ["network", "trajectory"], "default": "network"},
    "grid": {"type": int, "default": 4096},
    "r": {"type": int, "default": 1},
    "suite": {"required": True, "choices": list(SUITES)},
}

# parsed keys that no header records: the command, and options that change no result
UNRECORDED = ("command", "config", "out", "format", "workers")


def _params(args: argparse.Namespace) -> ModelParams:
    return ModelParams(args.alpha, args.beta, args.mu)


def _header(args: argparse.Namespace) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "config": {k: v for k, v in vars(args).items() if k not in UNRECORDED},
    }


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


def cmd_analyze(args: argparse.Namespace) -> int:
    p = _params(args)
    em = analytics.expected_M(p, args.tol)
    pe = analytics.extinction_probability(p, max(args.tol, 1e-12))
    lo, hi = analytics.simple_pext_bounds(p)
    tilt = analytics.zeta_tilt(p)
    lam = analytics.malthusian(p)
    nu = analytics.nu_circ_pmf(p)
    cc = limits.crt_constants(p, RngStream(args.seed), n_samples=args.samples)
    out = _header(args)
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
        "crt_constants": asdict(cc),
    }
    if args.format == "csv":
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
        _emit(_csv_text(["quantity", "value", "error"], rows), args.out)
    else:
        _emit_json(out, args.out)
    return 0


def cmd_gfun_table(args: argparse.Namespace) -> int:
    if args.z_steps < 2:
        raise ValueError("--z-steps must be at least 2")
    p = _params(args)
    zs = [i / (args.z_steps - 1) for i in range(args.z_steps)]
    tables = []
    clip = lambda x: min(max(x, 0.0), 1.0)
    for n in args.depths:
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
    if args.format == "csv":
        rows = []
        for t in tables:
            for r in t["rows"]:
                rows.append(
                    [t["depth"], r["z"], r["lower"], r["upper"], r["gap"], t["sup_gap"], t["gap_majorant"]]
                )
        _emit(
            _csv_text(["depth", "z", "lower", "upper", "gap", "sup_gap", "gap_majorant"], rows),
            args.out,
        )
    else:
        out = _header(args)
        out["gfun_table"] = tables
        _emit_json(out, args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    p = _params(args)
    if args.kind == "trajectory":
        if args.format != "json":
            raise ValueError("--kind trajectory writes JSON only")
        items = [
            simulate_trajectory(p, max(args.n, 1), RngStream(args.seed, i)).to_json_dict()
            for i in range(args.count)
        ]
        out = _header(args)
        out["trajectories"] = items
        _emit_json(out, args.out)
        return 0
    nets = [network.sample_network(p, args.n, RngStream(args.seed, i)) for i in range(args.count)]
    if args.format == "csv":
        _emit("\n".join(G.to_edge_csv() for G in nets), args.out)
    elif args.format == "newick":
        _emit("\n".join(G.to_extended_newick() for G in nets) + "\n", args.out)
    else:
        out = _header(args)
        out["networks"] = [G.to_json_dict() for G in nets]
        _emit_json(out, args.out)
    return 0


def cmd_contour(args: argparse.Namespace) -> int:
    G = network.sample_network(_params(args), args.n, RngStream(args.seed, 0))
    ts, hs, cols = network.contour(G, RngStream(args.seed, 1), args.grid)
    if args.format == "csv":
        rows = [[float(t), float(h)] for t, h in zip(ts, hs)]
        _emit(_csv_text(["t", "h"], rows), args.out)
    else:
        out = _header(args)
        out["contour"] = {
            "grid_size": args.grid,
            "t": [float(t) for t in ts],
            "h": [float(h) for h in hs],
            "color_index": [int(c) for c in cols],
        }
        _emit_json(out, args.out)
    return 0


def cmd_local_ball(args: argparse.Namespace) -> int:
    p = _params(args)
    tilt = analytics.zeta_tilt(p)
    ball = limits.sample_local_ball(p, tilt.zeta, args.r, RngStream(args.seed))
    out = _header(args)
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
    _emit_json(out, args.out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    suite, reads = SUITES[args.suite]
    unread = [f"--{o}" for o in SUITE_OPTIONS if o in args and o not in reads]
    if unread:
        raise ValueError(f"verify --suite {args.suite} does not read {' '.join(unread)}")
    for o in reads:
        vars(args).setdefault(o, OPTIONS[o]["default"])
    checks = suite(_params(args), args.seed, *(getattr(args, o) for o in reads))
    passed = all(c.passed for c in checks)
    out = _header(args)
    out["passed"] = passed
    out["checks"] = [c.to_json_dict() for c in checks]
    _emit_json(out, args.out)
    return 0 if passed else 1


# command -> (function, help, the formats it writes (none: JSON only, and no
# --format), the options it reads besides config, out, format, alpha, beta and mu)
COMMANDS = {
    "analyze": (cmd_analyze, "closed-form and Monte Carlo summary", ("json", "csv"), ("seed", "samples", "tol")),
    "gfun-table": (cmd_gfun_table, "lower/upper convergents of the offspring pgf", ("json", "csv"), ("depths", "z-steps")),
    "simulate": (cmd_simulate, "sample networks (or trajectories)", ("json", "csv", "newick"), ("n", "seed", "count", "kind")),
    "contour": (cmd_contour, "height process of a sampled network", ("json", "csv"), ("n", "seed", "grid")),
    "local-ball": (cmd_local_ball, "sample the local weak limit ball", (), ("seed", "r")),
    "verify": (cmd_verify, "run a named verification suite", (), ("seed", "suite", *SUITE_OPTIONS)),
}


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="phylonetsim", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, help_text, formats, reads) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text, allow_abbrev=False)
        sp.add_argument("--config", help="file of key=value lines, read as flags in front of these")
        sp.add_argument("--out")
        if formats:
            sp.add_argument("--format", choices=formats, default="json")
        for opt in ("alpha", "beta", "mu", *reads):
            # verify's suite options are absent unless given: cmd_verify checks them against the suite
            unset = {"default": argparse.SUPPRESS} if name == "verify" and opt in SUITE_OPTIONS else {}
            sp.add_argument(f"--{opt}", **{**OPTIONS[opt], **unset})
    return ap


def _with_config_flags(argv: list) -> list:
    """argv with the lines of its --config file, if any, as flags after the command."""
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return argv
    flags = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq or key == "config":
                raise ValueError(f"config line is not key=value of a command option: {line!r}")
            flags.append(f"--{key}={val}")
    return argv[:1] + flags + argv[1:]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config_flags(argv))
        return COMMANDS[args.command][0](args)
    except NUMERIC_ERRORS as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
