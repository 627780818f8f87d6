"""Command-line front end emitting deterministic JSON reports.

Commands wrap the library modules: `decompose` and `bipartition` ingest
operator spec files; `tps` fans out to partitions, distance, equivalent,
entangle, parity, bosonic and holonomy subcommands.  All randomness
flows from --seed, every report embeds the tolerances actually used, and
numeric fields are serialized with 17 significant digits so identical
invocations produce byte-identical output.  Wall time goes to stderr
only, keeping reports reproducible.

Exit codes: 0 success, 1 usage or input-file errors, 2 computation
errors surfaced by the library.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .algebra import (
    algebra_residuals,
    check_bipartition,
    close_algebra,
    commutant,
    structure_decompose,
)
from .bosonic import (
    build_fock,
    ccr_residual,
    mode_entanglement,
    single_excitation_state,
    transform_modes,
)
from .errors import TpskitError
from .holonomy import (
    LoopPath,
    builtin_family,
    holonomy_nonabelian_witness,
    loop_holonomy,
    refinement_ladder,
)
from .numerics import DEFAULT_TOL, Tolerance, unitarity_defect
from .opfile import OperatorSpecFile, SpecFileError, load_spec, parse_pauli_token
from .parity import syndrome_decompose, validate_parity_set
from .tps import (
    TPS,
    EntanglementMeasure,
    entanglement,
    entangling_power,
    multiplicative_partitions,
    tps_equivalent,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------ JSON rendering

def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return format(float(x), ".17g")


def _is_scalar(v) -> bool:
    return isinstance(v, (bool, np.bool_, int, np.integer, float, np.floating,
                          complex, np.complexfloating, str)) or v is None


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: floats at 17 significant digits, complex as [re, im]."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        return f"[{_fmt_float(c.real)}, {_fmt_float(c.imag)}]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            return "[]"
        if all(_is_scalar(v) for v in items):
            return "[" + ", ".join(render_json(v) for v in items) + "]"
        inner = ",\n".join(pad + "  " + render_json(v, indent + 1) for v in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot render {type(obj).__name__} in a report")


# ------------------------------------------------------------ argument helpers

def _int_tuple(text: str, flag: str):
    try:
        vals = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} expects comma-separated integers")
    if not vals:
        raise argparse.ArgumentTypeError(f"{flag} must not be empty")
    return vals


def _dims_arg(text: str):
    dims = _int_tuple(text, "--dims")
    if any(n < 2 for n in dims):
        raise argparse.ArgumentTypeError("--dims entries must be >= 2")
    return dims


def _cut_arg(text: str):
    return _int_tuple(text, "--cut")


def _corners_arg(text: str):
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("rectangle expects ax,ay,bx,by")
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("rectangle expects exactly four numbers")
    return vals


def _tolerance_from(args) -> Tolerance:
    return Tolerance(rank_rel=args.tol_rank, resid_abs=args.tol_resid)


def _resolve_parity_ops(tokens, spec: OperatorSpecFile | None):
    ops = []
    for tok in tokens:
        if spec is not None and tok in spec.operators:
            ops.append(spec.operators[tok])
        else:
            ops.append(parse_pauli_token(tok))
    return ops


def _measure_from(args) -> EntanglementMeasure:
    return EntanglementMeasure(kind=args.measure, cut=frozenset(args.cut))


# ----------------------------------------------------------------- handlers

def _cmd_decompose(args, tol):
    spec = load_spec(args.file)
    gens = list(spec.operators.values())
    if not gens:
        raise SpecFileError("spec file declares no operators")
    alg = close_algebra(gens, tol, dim=spec.dim)
    dec = structure_decompose(alg, tol, seed=args.seed)
    comm = commutant(alg, tol)
    results = {
        "blocks": [{"n": b.n, "d": b.d} for b in dec.blocks],
        "center_dim": len(dec.blocks),
        "is_factor": len(dec.blocks) == 1,
        "dim_algebra": len(alg),
        "dim_commutant": len(comm),
    }
    if args.emit_basis:
        results["basis_change"] = dec.basis_change
    residuals = {"block_form": dec.residual, **algebra_residuals(alg)}
    return results, residuals


def _cmd_bipartition(args, tol):
    spec = load_spec(args.file)
    a1 = close_algebra(spec.generator_matrices("a1"), tol, dim=spec.dim)
    a2 = close_algebra(spec.generator_matrices("a2"), tol, dim=spec.dim)
    cert = check_bipartition(a1, a2, tol)
    results = {
        "commuting": cert.commuting,
        "join_is_full": cert.join_is_full,
        "a1_is_factor": cert.a1_is_factor,
        "verdict": cert.verdict,
        "witness": cert.witness,
    }
    return results, {}


def _cmd_partitions(args, tol):
    parts = multiplicative_partitions(args.n)
    results = {
        "n": args.n,
        "count": len(parts),
        "factorizations": [list(p) for p in parts],
    }
    return results, {}


def _cmd_distance(args, tol):
    spec = load_spec(args.file)
    U = spec.operator(args.unitary)
    tps = TPS.natural(args.dims)
    measure = _measure_from(args)
    est = entangling_power(U, tps, measure, samples=args.samples, seed=args.seed, tol=tol)
    results = {
        "unitary": args.unitary,
        "dims": list(tps.dims),
        "cut": sorted(measure.cut),
        "measure": measure.short_kind,
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": est.samples,
        "seed": est.seed,
        "distance": float(np.sqrt(est.mean)),
    }
    return results, {}


def _cmd_equivalent(args, tol):
    spec = load_spec(args.file) if args.file else None

    def build(dims, iso_name):
        if iso_name is None:
            return TPS.natural(dims)
        if spec is None:
            raise SpecFileError("--iso1/--iso2 need a spec file to read from")
        return TPS(dims, spec.operator(iso_name), tol)

    t1 = build(args.dims1, args.iso1)
    t2 = build(args.dims2, args.iso2)
    perm = tps_equivalent(t1, t2, tol)
    results = {
        "dims1": list(t1.dims),
        "dims2": list(t2.dims),
        "equivalent": perm is not None,
        "permutation": list(perm) if perm is not None else None,
    }
    return results, {}


def _cmd_entangle(args, tol):
    spec = load_spec(args.file)
    state = spec.state(args.state)
    if (args.parity is None) == (args.dims is None):
        raise _UsageError("entangle needs exactly one of --parity or --dims")
    if args.parity is not None:
        ops = _resolve_parity_ops(args.parity, spec)
        sd = syndrome_decompose(validate_parity_set(ops, tol), tol)
        tps = sd.tps
        origin = {"parity": list(args.parity)}
    else:
        iso = spec.operator(args.iso) if args.iso else None
        tps = TPS(args.dims, iso, tol) if iso is not None else TPS.natural(args.dims)
        origin = {"dims": list(args.dims)}
    measure = _measure_from(args)
    value = entanglement(state, tps, measure)
    results = {
        "state": args.state,
        **origin,
        "tps_dims": list(tps.dims),
        "cut": sorted(measure.cut),
        "measure": measure.short_kind,
        "value": value,
    }
    return results, {}


def _cmd_parity(args, tol):
    spec = load_spec(args.file) if args.file else None
    ops = _resolve_parity_ops(args.parity, spec)
    ps = validate_parity_set(ops, tol)
    sd = syndrome_decompose(ps, tol)
    results = {
        "n": ps.n,
        "k": ps.k,
        "sectors": [{"label": list(label), "dim": V.shape[1]}
                    for label, V in sd.sectors.items()],
        "tps_dims": list(sd.tps.dims),
    }
    return results, {}


def _cmd_bosonic(args, tol):
    fock = build_fock(args.modes, args.cutoff)
    if args.unitary is not None:
        if args.file is None:
            raise _UsageError("--unitary needs a spec file to read from")
        spec = load_spec(args.file)
        U = spec.operator(args.unitary)
    else:
        U = np.eye(args.modes)
    ms = transform_modes(fock, U, tol)
    state = single_excitation_state(ms, args.excite)
    value = mode_entanglement(state, ms, cut=args.cut, kind=args.measure, tol=tol)
    results = {
        "modes": args.modes,
        "cutoff": args.cutoff,
        "fock_dim": fock.dim,
        "unitary": args.unitary,
        "excite": args.excite,
        "cut": sorted(set(args.cut)),
        "measure": args.measure,
        "value": value,
    }
    return results, {"ccr": ccr_residual(ms)}


def _cmd_holonomy(args, tol):
    fam, op = builtin_family(args.family)
    ax, ay, bx, by = args.rect
    loop = LoopPath.rectangle((ax, ay), (bx, by), refinement=args.refinement)
    ladder = refinement_ladder(fam, loop, args.eigenspace, op.n,
                               doublings=args.doublings, tol=tol)
    H = ladder.holonomy
    defect = unitarity_defect(H)
    results = {
        "family": args.family,
        "eigenspace": args.eigenspace,
        "degeneracy": op.n,
        "rect": list(args.rect),
        "refinements": ladder.refinements,
        "ladder_defects": ladder.defects,
        "holonomy": H,
    }
    if args.rect2 is not None:
        cx, cy, dx, dy = args.rect2
        loop2 = LoopPath.rectangle((cx, cy), (dx, dy), refinement=args.refinement)
        results["witness"] = holonomy_nonabelian_witness(
            fam, loop, loop2, args.eigenspace, op.n, tol)
    return results, {"unitarity_defect": defect}


# -------------------------------------------------------------------- parser

def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                        help="relative rank cutoff (default %(default)g)")
    common.add_argument("--tol-resid", type=float, default=DEFAULT_TOL.resid_abs,
                        help="absolute residual bound (default %(default)g)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized steps (default %(default)s)")
    common.add_argument("--out", metavar="PATH",
                        help="write the report here instead of stdout")

    parser = _Parser(prog="tpskit", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = top.add_parser("decompose", parents=[common],
                       help="block structure of the algebra closed over a spec file")
    p.add_argument("file", help="operator spec file (JSON)")
    p.add_argument("--emit-basis", action="store_true",
                   help="include the basis-change matrix in the report")
    p.set_defaults(handler=_cmd_decompose, command_path="decompose")

    p = top.add_parser("bipartition", parents=[common],
                       help="certify a1/a2 generator lists as a virtual bipartition")
    p.add_argument("file", help="spec file naming a1_generators and a2_generators")
    p.set_defaults(handler=_cmd_bipartition, command_path="bipartition")

    tps_parser = top.add_parser("tps", help="tensor product structure toolbox")
    sub = tps_parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("partitions", parents=[common],
                       help="multiplicative partitions of a dimension")
    p.add_argument("n", type=int, help="total dimension")
    p.set_defaults(handler=_cmd_partitions, command_path="tps partitions")

    p = sub.add_parser("distance", parents=[common],
                       help="entangling power and distance from the product gates")
    p.add_argument("file", help="spec file holding the unitary")
    p.add_argument("--unitary", required=True, metavar="NAME")
    p.add_argument("--dims", type=_dims_arg, required=True,
                   help="factor dimensions, e.g. 2,2")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=_cut_arg, default=(1,),
                   help="factor indices on one side (default 1)")
    p.set_defaults(handler=_cmd_distance, command_path="tps distance")

    p = sub.add_parser("equivalent", parents=[common],
                       help="test two structures for factor-wise equivalence")
    p.add_argument("file", nargs="?", help="spec file holding iso operators")
    p.add_argument("--dims1", type=_dims_arg, required=True)
    p.add_argument("--dims2", type=_dims_arg, required=True)
    p.add_argument("--iso1", metavar="NAME")
    p.add_argument("--iso2", metavar="NAME")
    p.set_defaults(handler=_cmd_equivalent, command_path="tps equivalent")

    p = sub.add_parser("entangle", parents=[common],
                       help="entanglement of a named state in a chosen structure")
    p.add_argument("file", help="spec file holding the state")
    p.add_argument("--state", required=True, metavar="NAME")
    p.add_argument("--parity", nargs="+", metavar="TOKEN",
                   help="parity operators: spec names or Pauli strings")
    p.add_argument("--dims", type=_dims_arg, help="natural-structure dimensions")
    p.add_argument("--iso", metavar="NAME", help="iso operator for --dims")
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=_cut_arg, default=(1,))
    p.set_defaults(handler=_cmd_entangle, command_path="tps entangle")

    p = sub.add_parser("parity", parents=[common],
                       help="syndrome sectors of a commuting parity set")
    p.add_argument("file", nargs="?", help="spec file for named operators")
    p.add_argument("--parity", nargs="+", required=True, metavar="TOKEN")
    p.set_defaults(handler=_cmd_parity, command_path="tps parity")

    p = sub.add_parser("bosonic", parents=[common],
                       help="mode entanglement of a single excitation")
    p.add_argument("file", nargs="?", help="spec file holding the mode unitary")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--unitary", metavar="NAME")
    p.add_argument("--excite", type=int, default=1, metavar="MODE")
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=_cut_arg, default=(1,),
                   help="mode indices on one side (default 1)")
    p.set_defaults(handler=_cmd_bosonic, command_path="tps bosonic")

    p = sub.add_parser("holonomy", parents=[common],
                       help="loop holonomy report for a built-in family")
    p.add_argument("--family", default="fixture-n2d2")
    p.add_argument("--rect", type=_corners_arg, default=(0.0, 0.0, 0.8, 0.6),
                   metavar="AX,AY,BX,BY")
    p.add_argument("--rect2", type=_corners_arg, metavar="AX,AY,BX,BY",
                   help="second rectangle for the non-abelian witness")
    p.add_argument("--eigenspace", type=int, default=1)
    p.add_argument("--refinement", type=int, default=16)
    p.add_argument("--doublings", type=int, default=3)
    p.set_defaults(handler=_cmd_holonomy, command_path="tps holonomy")

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        tol = _tolerance_from(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        results, residuals = args.handler(args, tol)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SpecFileError as exc:
        print(f"spec file error: {exc}", file=sys.stderr)
        return 1
    except TpskitError as exc:
        print(f"computation error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    report = {
        "command": args.command_path,
        "argv": argv,
        "seed": args.seed,
        "tolerances": {
            "rank_rel": tol.rank_rel,
            "resid_abs": tol.resid_abs,
            "degeneracy_gap": tol.degeneracy_gap,
        },
        "results": results,
        "residuals": residuals,
    }
    text = render_json(report) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"wall-time {elapsed:.3f} s", file=sys.stderr)
    return 0
