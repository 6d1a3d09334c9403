"""Command-line interface.

Exit codes: 0 success or positive verdict, 1 negative mathematical
verdict (not maximal, covered pair, invalid set-pair system), 2 usage or
input error, 3 node-budget exhaustion.  The library, not this module,
checks the search parameters (k, point cap, node budget): a bad one
raises a MiflabError, reported here with exit code 2.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bounds as bounds_mod
from .errors import (BudgetExceededError, CoveredPairError, InvalidIspError,
                     MiflabError, NotMifError, VerificationError, _dump_json)
from .family import DEFAULT_MAX_UNIVERSE, Family
from .constructions import bg_family, complete_family, projective_plane
from .isp import SetPairSystem, bollobas_sum, extract_isp, validate_isp
from .mif import chromatic_class, collapse, is_mif, merge
from .search import enumerate_mifs, search_isp
from .transversal import INFINITE_TAU, tau_with_nodes, transversal_family
from .verify import build_report, render_text

EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_family(args) -> Family:
    text = _read_source(args.family)
    if text.lstrip().startswith("{"):
        return Family.from_json(text, max_universe=args.max_universe)
    return Family.from_text(text, max_universe=args.max_universe)


def _tau_json_value(t):
    return "infinity" if t == INFINITE_TAU else t


# -- command handlers -----------------------------------------------------
# Each returns (exit code, JSON object, text form); main prints one of the
# two forms.  isp-extract has no text form.
Result = tuple[int, dict, str | None]


def cmd_gen(args) -> Result:
    if args.construction == "bg":
        fam = bg_family(args.k, args.t, max_universe=args.max_universe).family
    elif args.construction == "plane":
        fam = projective_plane(args.q)
    else:
        fam = complete_family(args.k, max_universe=args.max_universe)
    return EXIT_OK, fam.to_json_obj(), fam.to_text()


def cmd_tau(args) -> Result:
    t, nodes = tau_with_nodes(_load_family(args))
    t = _tau_json_value(t)
    return EXIT_OK, {"tau": t, "nodes": nodes}, f"tau {t}\n"


def cmd_transversals(args) -> Result:
    report = transversal_family(_load_family(args))
    obj = {"tau": _tau_json_value(report.tau),
           "transversals": [list(b) for b in report.transversals.blocks],
           "nodes": report.nodes}
    text = f"tau {report.tau}\n{report.transversals.to_text()}nodes {report.nodes}\n"
    return EXIT_OK, obj, text


def cmd_check_mif(args) -> Result:
    cert = is_mif(_load_family(args))
    obj = {"ok": cert.ok, "k": cert.k, "tau": _tau_json_value(cert.tau),
           "transversal_match": cert.transversal_match, "reason": cert.reason}
    text = (f"maximal intersecting family, k={cert.k}\n" if cert.ok
            else f"not maximal: {cert.reason}\n")
    return (EXIT_OK if cert.ok else EXIT_NEGATIVE), obj, text


def cmd_merge(args) -> Result:
    result = merge(_load_family(args), args.alpha, args.beta)
    return EXIT_OK, result.to_json_obj(), result.to_text()


def cmd_collapse(args) -> Result:
    trace = collapse(_load_family(args), args.alpha)
    text = (f"alpha {trace.alpha}\n"
            f"betas {' '.join(map(str, trace.betas))}\n"
            f"steps {trace.n_steps}\n"
            f"g_top_points {trace.g_top_points}\n"
            f"isp_pairs {len(trace.isp.pairs)}\n")
    return EXIT_OK, trace.to_json_obj(), text


def cmd_chromatic(args) -> Result:
    value = chromatic_class(_load_family(args))
    return EXIT_OK, {"chromatic_class": value}, f"chromatic {value}\n"


def cmd_isp_validate(args) -> Result:
    system = SetPairSystem.from_json(_read_source(args.isp))
    verdict = validate_isp(system)
    total = bollobas_sum(system) if verdict.ok else None
    obj = {"ok": verdict.ok, "n_pairs": verdict.n_pairs,
           "points": verdict.point_count,
           "violation": list(verdict.violation) if verdict.violation else None,
           "message": verdict.message,
           "bollobas_sum": str(total) if total is not None else None}
    text = (f"valid: {verdict.n_pairs} pairs, {verdict.point_count} points, sum {total}\n"
            if verdict.ok else f"invalid: {verdict.message}\n")
    return (EXIT_OK if verdict.ok else EXIT_NEGATIVE), obj, text


def cmd_isp_extract(args) -> Result:
    return EXIT_OK, extract_isp(_load_family(args)).to_json_obj(), None


def _t_section(k: int, t: int) -> dict:
    sub: dict = {"t": t, "bollobas_pair_bound": bounds_mod.bollobas_pair_bound(k, t)}
    if k >= t >= 1:
        sub["tuza_nkt_upper"] = bounds_mod.tuza_nkt_upper(k, t)
    if k >= t + 2:
        sub["tuza_conjecture"] = bounds_mod.tuza_conjecture_value(k, t)
    known = bounds_mod.TUZA_NKT_BOUNDARY_CASES.get((k, t))
    if known is not None:
        sub["boundary_witness_points"] = known
    return sub


def _bounds_text(obj: dict) -> str:
    lines = [f"k = {obj['k']}"]
    lines += [f"  {name:<24} {obj[name]}" for name in
              ("el_lower", "tuza_Nk_upper", "improved_upper",
               "half_central_binomial", "conjectured_N")]
    lines.append(f"  {'main_upper':<24} {obj['main_upper']['expr']}")
    sub = obj.get("t_section")
    if sub is not None:
        lines.append(f"t = {sub['t']}")
        lines += [f"  {name:<24} {sub[name]}" for name in
                  ("bollobas_pair_bound", "tuza_nkt_upper", "tuza_conjecture") if name in sub]
        if "boundary_witness_points" in sub:
            lines.append(f"  note: an explicit system with {sub['boundary_witness_points']} "
                         f"points exists at ({obj['k']},{sub['t']}); the simplified sum "
                         f"is below it at this boundary")
    return "\n".join(lines) + "\n"


def cmd_bounds(args) -> Result:
    obj = bounds_mod.eval_bounds(args.k).to_json_obj()
    if args.t is not None:
        obj["t_section"] = _t_section(args.k, args.t)
    return EXIT_OK, obj, _bounds_text(obj)


def cmd_search_mif(args) -> Result:
    result = enumerate_mifs(args.k, args.max_points, budget=args.budget,
                            checkpoint_path=args.checkpoint,
                            resume_path=args.resume)
    lines = [f"k {result.k}", f"universe_bound {result.universe_bound}",
             f"classes {len(result.families)}", f"max_points {result.max_points}"]
    lines += [f"  on {v} points: {c}" for v, c in sorted(result.counts_by_point_count.items())]
    lines.append(f"nodes {result.nodes}")
    text = "\n".join(lines) + "\n"
    return EXIT_OK, result.to_json_obj(), text


def cmd_search_isp(args) -> Result:
    result = search_isp(args.k, args.t, budget=args.budget)
    text = (f"n({result.k},{result.t}) {result.max_points}\n"
            f"witness_pairs {len(result.witness.pairs)}\n"
            f"nodes {result.nodes}\n")
    return EXIT_OK, result.to_json_obj(), text


def cmd_verify_paper(args) -> Result:
    report = build_report(skip_search=args.skip == "search")
    code = EXIT_OK if report.all_pass else EXIT_NEGATIVE
    return code, report.to_json_obj(), render_text(report)


# -- parser ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miflab",
        description="Exact computations on maximal intersecting families of k-sets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, family_arg=True, out=False, default_format="text"):
        if family_arg:
            p.add_argument("family", help="family file (JSON or 'b ...' text), or - for stdin")
        if default_format:
            p.add_argument("--format", choices=("text", "json"), default=default_format,
                           help="output format (default %(default)s)")
        p.add_argument("--max-universe", type=int, default=DEFAULT_MAX_UNIVERSE,
                       help="largest accepted universe size (default %(default)s)")
        if out:
            p.add_argument("-o", "--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("gen", help="generate a named family")
    p.add_argument("--construction", choices=("bg", "plane", "complete"), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--q", type=int)
    common(p, family_arg=False, out=True, default_format="json")
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("tau", help="minimum blocking-set size")
    common(p, default_format="json")
    p.set_defaults(handler=cmd_tau)

    p = sub.add_parser("transversals", help="all minimum blocking sets")
    common(p, default_format="json")
    p.set_defaults(handler=cmd_transversals)

    p = sub.add_parser("check-mif", help="verify maximality (family equals its transversals)")
    common(p)
    p.set_defaults(handler=cmd_check_mif)

    p = sub.add_parser("merge", help="merge away one point of an uncovered pair")
    common(p, out=True, default_format="json")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(handler=cmd_merge)

    p = sub.add_parser("collapse", help="merge points toward alpha and certify the chain")
    common(p, default_format="json")
    p.add_argument("--alpha", type=int, required=True)
    p.set_defaults(handler=cmd_collapse)

    p = sub.add_parser("chromatic", help="2- or 3-chromatic classification")
    common(p)
    p.set_defaults(handler=cmd_chromatic)

    p = sub.add_parser("isp-validate", help="validate a set-pair system")
    p.add_argument("isp", help="set-pair system JSON file, or - for stdin")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_isp_validate)

    p = sub.add_parser("isp-extract", help="extract a set-pair system from a family (JSON)")
    common(p, out=True, default_format=None)
    p.set_defaults(handler=cmd_isp_extract)

    p = sub.add_parser("bounds", help="exact bound and conjecture values")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_bounds)

    p = sub.add_parser("search", help="exhaustive searches")
    searches = p.add_subparsers(dest="what", required=True)
    mif = searches.add_parser("mif", help="maximal intersecting families of k-sets")
    isp = searches.add_parser("isp", help="set-pair systems with sides (k, t)")
    for p in (mif, isp):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--budget", type=int, default=None,
                       help="node budget (default: none)")
        p.add_argument("--format", choices=("text", "json"), default="json")
    isp.add_argument("--t", type=int, required=True)
    isp.set_defaults(handler=cmd_search_isp)
    mif.add_argument("--max-points", type=int, default=None,
                     help="point cap for the family search (default: proven bound)")
    mif.add_argument("--checkpoint", default=None, help="checkpoint file to write")
    mif.add_argument("--resume", default=None, help="checkpoint file to resume from")
    mif.set_defaults(handler=cmd_search_mif)

    p = sub.add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("--skip", choices=("search",),
                   help="skip the criteria that need the k=3 search")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, obj, text = args.handler(args)
        if getattr(args, "format", "json") == "json":
            text = _dump_json(obj) + "\n"
        out = getattr(args, "out", None)
        if out and out != "-":
            Path(out).write_text(text)
        else:
            sys.stdout.write(text)
        return code
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotMifError, CoveredPairError, InvalidIspError) as exc:
        print(f"negative: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE
    except VerificationError:
        raise  # internal cross-check failure: crash with the traceback
    except (MiflabError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
