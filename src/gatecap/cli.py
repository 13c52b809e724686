"""Command-line surface: analyze, decompose, verify, capacities, random.

Reports are emitted as human-readable tables by default or as JSON with
--json; all numeric output is reproducible from the input matrix and the
seed (timing fields excepted).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from .canonical import (
    DecompositionError,
    canonical_unitary,
    cartan_decompose,
    eigenphases,
    in_weyl_region,
)
from .capacities import verify_relation1, verify_relation2
from .distinguishability import _residual, d_min_canonical, d_min_geometric, verify_theorem
from .entanglement import capacities_closed_form
from .linalg import NotUnitaryError, haar_random_unitary, spin_flipped_square
from .oracle import SearchConfig, max_concurrence_product, min_probe_overlap
from .serialization import MalformedInputError, load_matrix, matrix_to_json

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_NOT_UNITARY = 3
EXIT_DECOMPOSITION = 4


def _fmt(value: float, degrees: bool = False) -> str:
    value = float(value) + 0.0  # normalize -0.0
    if degrees:
        return format(np.degrees(value), ".12g") + "deg"
    return format(value, ".12g")


def _fmt_vec(values, degrees: bool = False) -> str:
    return "(" + ", ".join(_fmt(v, degrees) for v in values) + ")"


def _input_hash(u: np.ndarray) -> str:
    doc = json.dumps(matrix_to_json(u), separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def cmd_analyze(args) -> int:
    t_start = time.perf_counter()
    u = load_matrix(args.matrix)
    form = cartan_decompose(u)
    t_decomp = time.perf_counter()
    caps = capacities_closed_form(form.d)
    d_min = {
        "closed": d_min_canonical(form.d),
        "geometric": d_min_geometric(u),
    }
    if args.numeric:
        # The probe search reads the input too: S U^T S U, not U_d^2.
        d_min["numeric"] = min_probe_overlap(spin_flipped_square(u), SearchConfig(args.seed)).value
    report = {
        "input_sha256": _input_hash(u),
        "d": [float(v) for v in form.d],
        "global_phase": float(form.global_phase),
        "residual": float(form.residual),
        "eigenphases": [float(v) for v in eigenphases(form.d)],
        "capacities": dataclasses.asdict(caps),
        "d_min": d_min,
        "theorem": {
            "quadratic": dataclasses.asdict(_residual(caps, d_min["geometric"], "geometric")),
            "quartic": dataclasses.asdict(
                _residual(caps, d_min["geometric"], "geometric", quartic=True)),
        },
        "timings": {
            "decompose_s": t_decomp - t_start,
            "total_s": time.perf_counter() - t_start,
        },
    }
    if args.json:
        _emit(json.dumps(report, indent=2), args.out)
        return EXIT_OK
    lines = [
        f"input sha256    {report['input_sha256']}",
        f"d               {_fmt_vec(report['d'], args.degrees)}",
        f"global phase    {_fmt(report['global_phase'], args.degrees)}",
        f"residual        {_fmt(report['residual'])}",
        f"eigenphases     {_fmt_vec(report['eigenphases'], args.degrees)}",
        f"c_max_prod      {_fmt(caps.c_max_prod)}",
        f"c_max           {_fmt(caps.c_max)}",
        f"e_max_prod      {_fmt(caps.e_max_prod)}",
        f"perfect entangler  {str(caps.perfect_entangler).lower()}",
    ]
    for route, value in d_min.items():
        lines.append(f"d_min {route:<10}{_fmt(value)}")
    lines.append(f"theorem residual (quadratic)  {_fmt(report['theorem']['quadratic']['residual'])}")
    lines.append(f"theorem residual (quartic)    {_fmt(report['theorem']['quartic']['residual'])}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def cmd_decompose(args) -> int:
    u = load_matrix(args.matrix)
    form = cartan_decompose(u)
    if args.json:
        _emit(json.dumps(form.to_json(), indent=2), args.out)
        return EXIT_OK
    lines = [
        f"d             {_fmt_vec(form.d, args.degrees)}",
        f"global phase  {_fmt(form.global_phase, args.degrees)}",
        f"residual      {_fmt(form.residual)}",
    ]
    for name, m in (("XA", form.x_a), ("XB", form.x_b), ("YA", form.y_a), ("YB", form.y_b)):
        lines.append(f"{name}:")
        for row in m:
            lines.append("  " + "  ".join(f"{z.real:+.12g}{z.imag:+.12g}j" for z in row))
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _parse_triple(text: str) -> np.ndarray:
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise MalformedInputError(f"cannot parse triple {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise MalformedInputError(f"expected three comma-separated angles, got {text!r}")
    return np.array(parts)


def cmd_capacities(args) -> int:
    if (args.d is None) == (args.matrix is None):
        raise MalformedInputError("provide exactly one of --d or a matrix file")
    if args.d is not None:
        d = _parse_triple(args.d)
    else:
        d = cartan_decompose(load_matrix(args.matrix)).d
    caps = capacities_closed_form(d)
    rel1 = verify_relation1(d)
    rel2 = verify_relation2(d, SearchConfig(args.seed))
    report = {
        "d": [float(v) for v in d],
        "capacities": dataclasses.asdict(caps),
        "relation1": dataclasses.asdict(rel1),
        "relation2": dataclasses.asdict(rel2),
    }
    if args.json:
        _emit(json.dumps(report, indent=2), args.out)
        return EXIT_OK
    lines = [
        f"d                    {_fmt_vec(d, args.degrees)}",
        f"c_max_prod           {_fmt(caps.c_max_prod)}",
        f"c_max                {_fmt(caps.c_max)}",
        f"e_max_prod           {_fmt(caps.e_max_prod)}",
        f"perfect entangler    {str(caps.perfect_entangler).lower()}",
        f"relation1 residual   {_fmt(rel1.relation_residual)}",
        f"relation2 residual   {_fmt(rel2.relation_residual)}",
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _makhlin_invariants(u: np.ndarray) -> np.ndarray:
    """Local invariants G1, G2 of a 4x4 unitary (Makhlin, quant-ph/0002045):
    two gates share them exactly when they are locally equivalent.  With M
    the gate in the magic basis Q, Q Q^T = -S gives tr M^T M = tr SG and
    tr (M^T M)^2 = tr SG^2 for SG = S U^T S U."""
    sg = spin_flipped_square(u)
    tr = np.trace(sg)
    det = np.linalg.det(u)
    return np.array([tr * tr / (16 * det), (tr * tr - np.trace(sg @ sg)) / (4 * det)])


def _verify_residual(u: np.ndarray, form, route: str) -> float:
    if route == "closed":
        return verify_theorem(form.d).residual
    if route == "geometric":
        # D_min from the input itself, not from d.  Inside the
        # perfect-entangler region a wrong d still has c_max_prod = 1 and
        # D_min = 0, so the input's local invariants are also held against
        # those of U_d.
        caps = capacities_closed_form(form.d)
        identity = _residual(caps, d_min_geometric(u), route).residual
        drift = _makhlin_invariants(u) - _makhlin_invariants(canonical_unitary(form.d))
        return max(identity, float(np.max(np.abs(drift))))
    if route == "numeric":
        oracle = max_concurrence_product(u).value
        return abs(oracle - capacities_closed_form(form.d).c_max_prod)
    raise MalformedInputError(f"unknown route {route!r}")


def cmd_verify(args) -> int:
    if args.trials <= 0:
        raise MalformedInputError("--trials must be a positive integer")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise MalformedInputError("--tol must be a finite non-negative number")
    routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    if not routes or len(set(routes)) < len(routes):
        raise MalformedInputError(f"--routes must name each route once, got {args.routes!r}")
    for route in routes:
        if route not in ("closed", "geometric", "numeric"):
            raise MalformedInputError(f"unknown route {route!r}; "
                                      "expected closed, geometric or numeric")
    rng = np.random.default_rng(args.seed)
    residuals = {route: [] for route in routes}
    worst = {}  # route -> (residual, trial, input) of its worst trial so far
    rows = []
    for trial in range(args.trials):
        u = haar_random_unitary(4, rng)
        form = cartan_decompose(u)
        for route in routes:
            r = _verify_residual(u, form, route)
            residuals[route].append(r)
            rows.append((trial, route, r))
            if route not in worst or r > worst[route][0]:
                worst[route] = (r, trial, u)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("trial,route,residual\n")
            for trial, route, r in rows:
                fh.write(f"{trial},{route},{r:.17g}\n")
    failed = False
    for route in routes:
        values = np.array(residuals[route])
        ok = bool(np.max(values) <= args.tol)
        failed = failed or not ok
        _, trial, u = worst[route]
        # `random` draws its matrices from the same generator in the same
        # order, so --count trial + 1 ends on the worst trial's input.
        print(f"route {route:<10} trials {args.trials:<6} "
              f"max residual {np.max(values):.6e}  mean {np.mean(values):.6e}  "
              f"{'pass' if ok else 'FAIL'} (tol {args.tol:g})  "
              f"worst trial {trial} seed {args.seed} sha256 {_input_hash(u)}")
    return EXIT_TOLERANCE if failed else EXIT_OK


def _random_weyl_triple(rng: np.random.Generator) -> np.ndarray:
    while True:
        ax, ay = rng.uniform(0, np.pi / 4, 2)
        az = rng.uniform(-np.pi / 4, np.pi / 4)
        d = np.array([ax, ay, az])
        if abs(az) <= ay <= ax:
            return d


def cmd_random(args) -> int:
    if args.count <= 0:
        raise MalformedInputError("--count must be a positive integer")
    rng = np.random.default_rng(args.seed)
    docs = []
    for _ in range(args.count):
        if args.weyl:
            d = _random_weyl_triple(rng)
            assert in_weyl_region(d)
            docs.append(json.dumps({"d": [float(v) for v in d]}))
        else:
            docs.append(json.dumps(matrix_to_json(haar_random_unitary(4, rng))))
    _emit("\n".join(docs), args.out)
    return EXIT_OK


def _seed(text: str) -> int:
    """The --seed type: a non-negative integer, so a bad seed is a usage error
    before any subcommand starts its work."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


# Flags shared by several subcommands; each subcommand takes only those its
# cmd_* function reads.
_FLAGS = {
    "--seed": dict(type=_seed, default=0, help="RNG seed, a non-negative integer (default 0)"),
    "--tol": dict(type=float, default=1e-9,
                  help="tolerance for pass/fail gates (default 1e-9)"),
    "--json": dict(action="store_true", help="emit JSON instead of a table"),
    "--out": dict(default=None, help="write the report to this path"),
    "--degrees": dict(action="store_true", help="print angles in degrees (default radians)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gatecap",
        description="Entangling capacity and distinguishability of two-qubit unitaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags, summary):
        p = sub.add_parser(name, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    p = add("analyze", cmd_analyze, ("--seed", "--json", "--out", "--degrees"),
            "full report for one 4x4 unitary")
    p.add_argument("matrix", help="path to a matrix JSON file")
    p.add_argument("--numeric", action="store_true",
                   help="also compute d_min by direct probe search on the input")

    p = add("decompose", cmd_decompose, ("--json", "--out", "--degrees"),
            "canonical decomposition only")
    p.add_argument("matrix", help="path to a matrix JSON file")

    p = add("capacities", cmd_capacities, ("--seed", "--json", "--out", "--degrees"),
            "capacity relations for a triple or matrix")
    p.add_argument("matrix", nargs="?", default=None, help="path to a matrix JSON file")
    p.add_argument("--d", default=None, help="interaction triple ax,ay,az in radians")

    p = add("verify", cmd_verify, ("--seed", "--tol", "--out"),
            "batch theorem verification over Haar samples")
    p.add_argument("--trials", type=int, required=True, help="number of Haar samples")
    p.add_argument("--routes", default="closed,geometric",
                   help="comma-separated: closed (d only), geometric (D_min from "
                        "the input's spectrum and its local invariants against d), "
                        "numeric (product search on the input)")

    p = add("random", cmd_random, ("--seed", "--out"), "emit Haar matrices or Weyl triples")
    p.add_argument("--count", type=int, default=1, help="number of samples")
    p.add_argument("--weyl", action="store_true", help="emit interaction triples")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The reader closed stdout (`gatecap random | head -1`): an I/O
        # failure, not malformed input.  What is still buffered goes to
        # devnull, so the interpreter's final flush cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except NotUnitaryError as exc:
        print(f"error: not-unitary: {exc}", file=sys.stderr)
        return EXIT_NOT_UNITARY
    except (MalformedInputError, OSError, ValueError) as exc:
        print(f"error: malformed-input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DecompositionError as exc:
        print(f"error: decomposition-failure: {exc}", file=sys.stderr)
        return EXIT_DECOMPOSITION


if __name__ == "__main__":
    sys.exit(main())
