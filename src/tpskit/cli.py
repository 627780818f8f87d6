"""Command-line front end emitting deterministic JSON reports.

Commands wrap the library modules: `decompose` and `bipartition` ingest
operator spec files; `tps` fans out to partitions, distance, equivalent,
entangle, parity, bosonic and holonomy subcommands.  main reads the spec
file a command names once, then calls its handler(args, spec, tol); each
handler imports the layers it runs, so a fresh process loads no other, and
numpy only with the first layer that builds a matrix.  All randomness flows
from --seed, every report embeds the tolerances it ran at, and numeric fields
are serialized with 17 significant digits so identical invocations produce
byte-identical output.  Wall time (the spec read and the handler, with its
first imports) goes to stderr only, keeping reports reproducible.

Exit codes: 0 success, 1 usage or input-file errors, 2 computation
errors surfaced by the library.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import time

from .errors import DimensionMismatchError, SpecFileError, TpskitError
from .pure import (DEFAULT_TOL, DEGENERACY_GAP, Tolerance, multiplicative_partitions, parse_pauli_token,
                   pauli_bits, pauli_parity_shape)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ------------------------------------------------------------ JSON rendering

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x!r} in report")
    return format(x, ".17g")


def _fmt_complex(z: complex) -> str:
    return f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]"


# JSON text by exact type, looked up first for every scalar: a large report holds ~10^5
_TEXT_OF_TYPE = {
    bool: lambda v: "true" if v else "false",
    int: str,
    float: _fmt_float,
    complex: _fmt_complex,
    str: json.dumps,
    type(None): lambda v: "null",
}


def _scalar_text(v) -> str | None:
    """The JSON text of a scalar, a numpy scalar as its Python scalar, or None when v is not one."""
    if (np := sys.modules.get("numpy")) is not None and isinstance(v, np.generic):
        v = v.item()
    text = _TEXT_OF_TYPE.get(type(v))
    return None if text is None else text(v)


def render_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: floats at 17 significant digits, complex as [re, im]."""
    pad = "  " * indent
    if (np := sys.modules.get("numpy")) is not None and isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        texts = [_TEXT_OF_TYPE.get(type(v), _scalar_text)(v) for v in obj]
        if None not in texts:
            return "[" + ", ".join(texts) + "]"
        inner = ",\n".join(pad + "  " + (render_json(v, indent + 1) if t is None else t)
                           for t, v in zip(texts, obj))
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    text = _TEXT_OF_TYPE.get(type(obj), _scalar_text)(obj)
    if text is None:
        raise TypeError(f"cannot render {type(obj).__name__} in a report")
    return text


# ------------------------------------------------------------ argument helpers

def _int_tuple(text: str, flag: str):
    try:
        vals = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} expects comma-separated integers")
    return vals


def _dims_arg(text: str):
    dims = _int_tuple(text, "--dims")
    if any(n < 2 for n in dims):
        raise argparse.ArgumentTypeError("--dims entries must be >= 2")
    return dims


def _seed_arg(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"--seed expects a non-negative integer, got {text!r}")


def _corners_arg(text: str):
    try:
        vals = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("rectangle expects ax,ay,bx,by")
    if len(vals) != 4:
        raise argparse.ArgumentTypeError("rectangle expects exactly four numbers")
    return vals


def _structure(dims, iso_name, spec, tol):
    """The structure --dims and --iso name; with a spec, dims that do not
    multiply to its dim are refused before any structure is built."""
    from .tps import TPS
    if iso_name is not None and spec is None:
        raise _UsageError("--iso1/--iso2 need a spec file to read from")
    iso = None if iso_name is None else spec.operator(iso_name)
    if spec is not None and math.prod(dims) != spec.dim:
        raise DimensionMismatchError(f"--dims give dimension {math.prod(dims)}, but the spec file "
                                     f"declares {spec.dim}")
    return TPS.natural(dims, tol) if iso is None else TPS(dims, iso, tol)


def _operands(tokens, spec, dim=None) -> list:
    """The operands --parity names: a spec operator as the file gave it, a dense
    matrix or a Pauli string, else the token itself as a Pauli string, read against dim if given."""
    return [spec.operators[tok] if spec is not None and tok in spec.operators
            else parse_pauli_token(tok, dim) for tok in tokens]


def _parity(ops, tol):
    """The parity set of the operands, split densely, with its sector structure built."""
    from .opfile import as_matrices
    from .parity import syndrome_decompose, validate_parity_set
    return syndrome_decompose(validate_parity_set(as_matrices(ops), tol))


# ----------------------------------------------------------------- handlers

def _cmd_decompose(args, spec, tol):
    from .algebra import algebra_residuals, close_algebra
    from .opfile import as_matrices
    gens = as_matrices(spec.operators.values())
    if not gens:
        raise SpecFileError("spec file declares no operators")
    alg = close_algebra(gens, tol, dim=spec.dim, seed=args.seed)
    results = {
        "blocks": [{"n": n, "d": d} for n, d in alg.block_shape],
        "center_dim": len(alg.block_shape),
        "is_factor": len(alg.block_shape) == 1,
        "dim_algebra": len(alg),
        "dim_commutant": sum(n * n for n, _ in alg.block_shape),
    }
    if args.emit_basis:
        results["basis_change"] = alg.basis_change
    residuals = {"block_form": alg.residual, **algebra_residuals(alg, seed=args.seed)}
    return results, residuals


def _cmd_bipartition(args, spec, tol):
    from .algebra import _certify, _closure_seed, close_algebra
    # only a1's block form is read: a2 enters the certificate as its closure seed, never solved
    a1 = close_algebra(spec.generator_matrices("a1"), tol, dim=spec.dim, seed=args.seed)
    cert = _certify(a1, _closure_seed(spec.generator_matrices("a2"), tol, spec.dim), args.seed)
    results = {
        "commuting": cert.commuting,
        "join_is_full": cert.join_is_full,
        "a1_is_factor": cert.a1_is_factor,
        "verdict": cert.verdict,
        "witness": cert.witness,
    }
    return results, cert.residuals


def _cmd_partitions(args, spec, tol):
    parts = multiplicative_partitions(args.n)
    results = {
        "n": args.n,
        "count": len(parts),
        "factorizations": [list(p) for p in parts],
    }
    return results, {}


def _cmd_distance(args, spec, tol):
    from .tps import EntanglementMeasure, entangling_power
    U = spec.operator(args.unitary)
    tps = _structure(args.dims, None, spec, tol)
    measure = EntanglementMeasure(kind=args.measure, cut=args.cut)
    est = entangling_power(U, tps, measure, samples=args.samples, seed=args.seed)
    results = {
        "unitary": args.unitary,
        "dims": list(tps.dims),
        "cut": sorted(measure.cut),
        "measure": measure.kind,
        "mean": est.mean,
        "stderr": est.stderr,
        "samples": args.samples,
        "seed": args.seed,
        "distance": math.sqrt(est.mean),
    }
    return results, {"unitarity_defect": est.unitarity_defect}


def _cmd_equivalent(args, spec, tol):
    from .tps import tps_equivalent
    t1 = _structure(args.dims1, args.iso1, spec, tol)
    t2 = _structure(args.dims2, args.iso2, spec, tol)
    perm = tps_equivalent(t1, t2)
    results = {
        "dims1": list(t1.dims),
        "dims2": list(t2.dims),
        "equivalent": perm is not None,
        "permutation": list(perm) if perm is not None else None,
    }
    return results, {}


def _cmd_entangle(args, spec, tol):
    from .tps import EntanglementMeasure, entanglement
    state = spec.state(args.state)
    if (args.parity is None) == (args.dims is None):
        raise _UsageError("entangle needs exactly one of --parity or --dims")
    if args.iso is not None and args.dims is None:
        raise _UsageError("--iso goes with --dims only")
    if args.parity is not None:
        tps = _parity(_operands(args.parity, spec, spec.dim), tol).tps
        origin = {"parity": list(args.parity)}
    else:
        tps = _structure(args.dims, args.iso, spec, tol)
        origin = {"dims": list(args.dims)}
    measure = EntanglementMeasure(kind=args.measure, cut=args.cut)
    value = entanglement(state, tps, measure)
    results = {
        "state": args.state,
        **origin,
        "tps_dims": list(tps.dims),
        "cut": sorted(measure.cut),
        "measure": measure.kind,
        "value": value,
    }
    return results, {}


def _cmd_parity(args, spec, tol):
    ops = _operands(args.parity, spec)
    if all(isinstance(op, str) for op in ops):  # Pauli strings only: judged exactly from their (x|z) bits
        n, k = pauli_parity_shape([pauli_bits(op) for op in ops])
    else:
        ps = _parity(ops, tol)
        n, k = ps.n, ps.k
    results = {
        "n": n,
        "k": k,
        "sectors": [{"label": list(label), "dim": 2 ** (n - k)}
                    for label in itertools.product((1, -1), repeat=k)],
        "tps_dims": [2 ** (n - k), 2 ** k],
    }
    return results, {}


def _cmd_bosonic(args, spec, tol):
    from .bosonic import build_fock, ccr_residual, mode_entanglement, single_excitation_state, transform_modes
    fock = build_fock(args.modes, args.cutoff, tol)
    if args.unitary is not None:
        if spec is None:
            raise _UsageError("--unitary needs a spec file to read from")
        fock = transform_modes(fock, spec.operator(args.unitary))
    state = single_excitation_state(fock, args.excite)
    value = mode_entanglement(state, fock, cut=args.cut, kind=args.measure)
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
    return results, {"ccr": ccr_residual(fock)}


def _cmd_holonomy(args, spec, tol):
    from .holonomy import LoopPath, builtin_family, holonomy_nonabelian_witness, refinement_ladder
    from .numerics import unitarity_defect
    fam, op = builtin_family(args.family, tol)
    loop = LoopPath.rectangle(args.rect[:2], args.rect[2:], refinement=args.refinement)
    ladder = refinement_ladder(fam, loop, args.eigenspace, op.n, doublings=args.doublings)
    results = {
        "family": args.family,
        "eigenspace": args.eigenspace,
        "degeneracy": op.n,
        "rect": list(args.rect),
        "refinements": ladder.refinements,
        "ladder_defects": ladder.defects,
        "holonomy": ladder.holonomy,
    }
    if args.rect2 is not None:
        loop2 = LoopPath.rectangle(args.rect2[:2], args.rect2[2:], refinement=args.refinement)
        results["witness"] = holonomy_nonabelian_witness(fam, loop, loop2, args.eigenspace, op.n)
    return results, {"unitarity_defect": unitarity_defect(ladder.holonomy)}


# -------------------------------------------------------------------- parser

@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built on first use and shared by every main() call.

    parse_args gives a fresh Namespace each call and every default is
    immutable, so no call sees another's arguments.  Callers must not
    change the parser.
    """
    cut = functools.partial(_int_tuple, flag="--cut")
    common = _Parser(add_help=False)
    common.add_argument("--tol-rank", type=float, default=DEFAULT_TOL.rank_rel,
                        help="relative rank cutoff (default %(default)g)")
    common.add_argument("--tol-resid", type=float, default=DEFAULT_TOL.resid_abs,
                        help="absolute residual bound (default %(default)g)")
    common.add_argument("--seed", type=_seed_arg, default=0,
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
    p.set_defaults(handler=_cmd_decompose)

    p = top.add_parser("bipartition", parents=[common],
                       help="certify a1/a2 generator lists as a virtual bipartition")
    p.add_argument("file", help="spec file naming a1_generators and a2_generators")
    p.set_defaults(handler=_cmd_bipartition)

    tps_parser = top.add_parser("tps", help="tensor product structure toolbox")
    sub = tps_parser.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")

    p = sub.add_parser("partitions", parents=[common],
                       help="multiplicative partitions of a dimension")
    p.add_argument("n", type=int, help="total dimension")
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("distance", parents=[common],
                       help="entangling power and distance from the product gates")
    p.add_argument("file", help="spec file holding the unitary")
    p.add_argument("--unitary", required=True, metavar="NAME")
    p.add_argument("--dims", type=_dims_arg, required=True,
                   help="factor dimensions, e.g. 2,2")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=cut, default=(1,),
                   help="factor indices on one side (default 1)")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("equivalent", parents=[common],
                       help="test two structures for factor-wise equivalence")
    p.add_argument("file", nargs="?", help="spec file holding iso operators")
    p.add_argument("--dims1", type=_dims_arg, required=True)
    p.add_argument("--dims2", type=_dims_arg, required=True)
    p.add_argument("--iso1", metavar="NAME")
    p.add_argument("--iso2", metavar="NAME")
    p.set_defaults(handler=_cmd_equivalent)

    p = sub.add_parser("entangle", parents=[common],
                       help="entanglement of a named state in a chosen structure")
    p.add_argument("file", help="spec file holding the state")
    p.add_argument("--state", required=True, metavar="NAME")
    p.add_argument("--parity", nargs="+", metavar="TOKEN",
                   help="parity operators: spec names or Pauli strings")
    p.add_argument("--dims", type=_dims_arg, help="natural-structure dimensions")
    p.add_argument("--iso", metavar="NAME", help="iso operator for --dims")
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=cut, default=(1,))
    p.set_defaults(handler=_cmd_entangle)

    p = sub.add_parser("parity", parents=[common],
                       help="syndrome sectors of a commuting parity set")
    p.add_argument("file", nargs="?", help="spec file for named operators")
    p.add_argument("--parity", nargs="+", required=True, metavar="TOKEN")
    p.set_defaults(handler=_cmd_parity)

    p = sub.add_parser("bosonic", parents=[common],
                       help="mode entanglement of a single excitation")
    p.add_argument("file", nargs="?", help="spec file holding the mode unitary")
    p.add_argument("--modes", type=int, required=True)
    p.add_argument("--cutoff", type=int, required=True)
    p.add_argument("--unitary", metavar="NAME")
    p.add_argument("--excite", type=int, default=1, metavar="MODE")
    p.add_argument("--measure", choices=["vn", "linear"], default="vn")
    p.add_argument("--cut", type=cut, default=(1,),
                   help="mode indices on one side (default 1)")
    p.set_defaults(handler=_cmd_bosonic)

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
    p.set_defaults(handler=_cmd_holonomy)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = build_parser().parse_args(argv)
        tol = Tolerance(rank_rel=args.tol_rank, resid_abs=args.tol_resid)
    except (_UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    try:
        if (path := getattr(args, "file", None)) is not None:
            from .opfile import load_spec  # a spec file's dense entries load numpy
        spec = None if path is None else load_spec(path)
        results, residuals = args.handler(args, spec, tol)
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
        "command": " ".join(filter(None, [args.command, getattr(args, "subcommand", None)])),
        "argv": argv,
        "seed": args.seed,
        "tolerances": {
            "rank_rel": tol.rank_rel,
            "resid_abs": tol.resid_abs,
            "degeneracy_gap": DEGENERACY_GAP,
        },
        "results": results,
        "residuals": residuals,
    }
    text = render_json(report) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write report to {args.out}: {exc.strerror}", file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    print(f"wall-time {elapsed:.3f} s", file=sys.stderr)
    return 0
