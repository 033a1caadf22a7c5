"""Command-line front end: translate, family, check, refute, audit.

Output is plain text, one record per line, tab-separated where a record
has fields.  Exit codes: 0 for success/true/exhausted, 1 for a refuted
or failed check, 2 for usage, parse, validation or memory errors, an
interrupt (Ctrl-C) or a closed stdout.  All randomness is seeded and the
seed is echoed, so identical invocations produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import corpus, syntax
from .formula import Var, length, substitute, varset
from .reduction import (base_length, family_formula, level_count,
                        reduce_to_one_var, positive_embed, spiral_cell,
                        spiral_index, spiral_walk, stability_level, star)
from .search import SearchBudget, find_countermodel
from .semantics import FS, MIPC, TableContext, truth_table

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_ERROR = 2

# The highest family level the CLI takes: level 15's count has 3,685
# digits, the last within Python's 4,300-digit int-to-str limit.
MAX_LEVEL = 15
# The longest family formula ``family`` prints, in symbols: level 10
# (3.3e7 symbols) takes about 1 GB to print, level 11 four times that.
MAX_PRINT = 5 * 10 ** 7


def _kind(args: argparse.Namespace) -> str:
    return MIPC if args.mipc else FS


def _budget(args: argparse.Namespace, var_bound: int) -> SearchBudget:
    return SearchBudget(max_worlds=args.max_worlds,
                        max_points=args.max_points,
                        var_bound=var_bound,
                        max_candidates=args.max_candidates,
                        time_cap_ms=args.time_cap_ms)


def cmd_translate(args: argparse.Namespace, out) -> int:
    phi = syntax.parse_formula(args.formula)

    def emit(key: str, value) -> None:
        print(f"{key}\t{value}", file=out)

    emit("input", syntax.print_formula(phi))
    emit("input_length", length(phi))
    report = reduce_to_one_var(phi) if args.stage == "full" else None
    if args.stage == "star":
        if not phi.positive:
            print("error\tstage star needs a positive input formula",
                  file=sys.stderr)
            return EXIT_ERROR
        subst = star(phi)
    else:
        embedding = positive_embed(phi) if report is None else report.embedding
        emit("fresh_var", f"p{embedding.fresh_var}")
        emit("diamond_guard", syntax.print_formula(embedding.diamond_guard))
        emit("box_guard", syntax.print_formula(embedding.box_guard))
        emit("entailment_guard", syntax.print_formula(embedding.entailment_guard))
        emit("guard", syntax.print_formula(embedding.guard))
        emit("body", syntax.print_formula(embedding.body))
        emit("positive_form", syntax.print_formula(embedding.positive_form))
        emit("positive_length", length(embedding.positive_form))
        if report is None:
            return EXIT_OK
        subst = report.substitution
    emit("base_size", base_length())
    emit("stable_level", subst.stable_level)
    emit("input_level", subst.input_level)
    emit("substitution_level", subst.level)
    emit("var_map", ",".join(f"p{a}->p{b}" for a, b in subst.var_map) or "-")
    emit("output_length", length(subst.result))
    if report is not None:
        emit("bound_limit", report.bound_limit)
        emit("bound_ok", "true" if report.bound_ok else "false")
    emit("output", syntax.print_formula(subst.result))
    return EXIT_OK


def cmd_family(args: argparse.Namespace, out) -> int:
    if args.g is not None:
        i, j = args.g
        print(spiral_index(i, j), file=out)
        return EXIT_OK
    if args.ginv is not None:
        i, j = spiral_cell(args.ginv)
        print(f"({i},{j})", file=out)
        return EXIT_OK
    if args.count is not None:
        print(level_count(args.count), file=out)
        return EXIT_OK
    if args.letter is None or args.level is None or args.index is None:
        print("error\tfamily needs LETTER LEVEL INDEX "
              "(or one of --g/--ginv/--count)", file=sys.stderr)
        return EXIT_ERROR
    phi = substitute(family_formula(args.letter, args.level, args.index),
                     {1: Var(args.base_var)})
    if length(phi) > MAX_PRINT:
        print(f"error\tthe formula has {length(phi)} symbols, more than "
              f"the {MAX_PRINT} that family prints", file=sys.stderr)
        return EXIT_ERROR
    print(syntax.print_formula(phi), file=out)
    return EXIT_OK


def cmd_check(args: argparse.Namespace, out) -> int:
    try:
        with open(args.model, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"error\t{err}", file=sys.stderr)
        return EXIT_ERROR
    model = syntax.parse_model(text, kind=MIPC if args.mipc else
                               (FS if args.fs else None))
    phi = syntax.parse_formula(args.formula)
    ctx = TableContext.for_model(model)
    tables = truth_table(model, phi, ctx)
    mask = tables[phi]
    all_true = mask & ctx.space == ctx.space
    if args.global_verdict:
        print("true" if all_true else "false", file=out)
    else:
        for w, x in ctx.pairs:
            value = "true" if (mask >> (w * ctx.n_points + x)) & 1 else "false"
            print(f"{model.world_names[w]}\t{model.point_names[x]}\t{value}",
                  file=out)
    return EXIT_OK if all_true else EXIT_REFUTED


def cmd_refute(args: argparse.Namespace, out) -> int:
    phi = syntax.parse_formula(args.formula)
    var_bound = args.vars if args.vars is not None else \
        max(varset(phi), default=0)
    budget = _budget(args, var_bound)
    result = find_countermodel(phi, budget, _kind(args))
    stats = result.stats
    if result.refuted:
        # pure certificate on stdout: model text plus the refutes trailer
        out.write(syntax.print_certificate(result.countermodel, result.world,
                                           result.point))
        return EXIT_REFUTED
    print(f"exhausted\tmodels_tested={stats.models_tested}"
          f"\tstop={stats.stop}"
          f"\tmax_worlds={budget.max_worlds}"
          f"\tmax_points={budget.max_points}"
          f"\tvars={budget.var_bound}", file=out)
    return EXIT_OK


def _audit_spiral(limit: int, out) -> bool:
    walk = spiral_walk()
    previous_rank = 0
    for rank in range(1, limit + 1):
        cell = next(walk)
        back = spiral_index(*cell)
        cell2 = spiral_cell(rank)
        if back != rank or cell2 != cell or back <= previous_rank:
            print(f"spiral\tfail\trank={rank} cell={cell} "
                  f"index={back} inverse={cell2}", file=out)
            return False
        previous_rank = back
    print(f"spiral\tpass\tranks=1..{limit}", file=out)
    return True


def _audit_family_sizes(max_level: int, per_level: int, seed: int, out) -> bool:
    rng = random.Random(seed)
    base = base_length()
    for level in range(max_level + 1):
        count = level_count(level)
        if count <= per_level:
            indices = list(range(1, count + 1))
        else:
            indices = sorted({1, count} |
                             {rng.randrange(1, count + 1)
                              for _ in range(per_level)})
        bound = base * 5 ** level
        for letter in ("A", "B"):
            for index in indices:
                got = length(family_formula(letter, level, index))
                if got >= bound:
                    print(f"family-sizes\tfail\t{letter} level={level} "
                          f"index={index} length={got} bound={bound}",
                          file=out)
                    return False
    print(f"family-sizes\tpass\tmax-level={max_level} seed={seed}", file=out)
    return True


def _audit_growth(out) -> bool:
    base = base_length()
    k0 = stability_level()
    for k in range(k0, k0 + 11):
        if level_count(k) <= base * 5 ** k:
            print(f"growth-cert\tfail\tlevel={k}", file=out)
            return False
    if level_count(k0) < 7:
        print(f"growth-cert\tfail\tcount({k0})<7", file=out)
        return False
    print(f"growth-cert\tpass\tk0={k0} base_size={base}", file=out)
    return True


def _audit_sizes(count: int, seed: int, max_length: int, out) -> bool:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        target = rng.randint(4, max_length)
        phi = corpus.formula_with_length(rng, target)
        report = reduce_to_one_var(phi)
        if not report.bound_ok:
            print(f"sizes\tfail\tinput={syntax.print_formula(phi)}", file=out)
            return False
        worst = max(worst, report.output_length / report.bound_limit)
    print(f"sizes\tpass\tcorpus={count} seed={seed} max-length={max_length} "
          f"worst-ratio={worst:.6f}", file=out)
    return True


def cmd_audit(args: argparse.Namespace, out) -> int:
    run_all = not (args.spiral or args.family_sizes or args.growth_cert
                   or args.sizes)
    ok = True
    if run_all or args.spiral:
        ok = _audit_spiral(args.spiral or 10_000, out) and ok
    if run_all or args.family_sizes:
        ok = _audit_family_sizes(args.max_level, args.per_level, args.seed,
                                 out) and ok
    if run_all or args.growth_cert:
        ok = _audit_growth(out) and ok
    if run_all or args.sizes:
        ok = _audit_sizes(args.corpus, args.seed, args.max_length, out) and ok
    return EXIT_OK if ok else EXIT_REFUTED


_GENERATOR_HELP = """\
random corpus shape:
  formulas are drawn as random trees of depth <= 4 with connective
  weights & : | : -> : <> : [] = 3 : 3 : 3 : 2 : 2, a 25% chance of
  cutting a branch early and a 20% chance of a false leaf; sized inputs
  join such chunks pairwise until the target symbol length is reached.
  Identical seeds give identical corpora and byte-identical output.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imred",
        description="FS/MIPC toolkit: positive one-variable translation, "
                    "model checking and bounded countermodel search.")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("translate",
                        help="translate a formula into the positive "
                             "one-variable fragment")
    tr.add_argument("formula")
    tr.add_argument("--stage", choices=("positive", "star", "full"),
                    default="full",
                    help="stop after the positive embedding, run only the "
                         "one-variable substitution, or run both (default)")

    fam = sub.add_parser("family",
                         help="print family formulas and the pair enumeration")
    fam.add_argument("letter", nargs="?", choices=("A", "B"))
    fam.add_argument("level", nargs="?", type=_int_at_least(0, MAX_LEVEL))
    fam.add_argument("index", nargs="?", type=int)
    fam.add_argument("--base-var", type=int, default=1, metavar="N",
                     help="variable the family is built over (default 1)")
    fam.add_argument("--g", nargs=2, type=int, metavar=("I", "J"),
                     help="print the rank of cell (I, J)")
    fam.add_argument("--ginv", type=int, metavar="R",
                     help="print the cell of rank R")
    fam.add_argument("--count", type=_int_at_least(0, MAX_LEVEL), metavar="K",
                     help="print how many formulas per letter level K holds")

    ck = sub.add_parser("check", help="evaluate a formula over a model file")
    ck.add_argument("model")
    ck.add_argument("formula")
    ck.add_argument("--global", dest="global_verdict", action="store_true",
                    help="print a single verdict instead of a per-pair table")
    _logic_flags(ck)

    rf = sub.add_parser("refute",
                        help="search for a countermodel within a budget")
    rf.add_argument("formula")
    _logic_flags(rf)
    _budget_flags(rf)

    au = sub.add_parser("audit", help="self-checks; no flags runs everything",
                        epilog=_GENERATOR_HELP,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    au.add_argument("--spiral", type=_int_at_least(1), metavar="N",
                    help="check the pair enumeration up to rank N")
    au.add_argument("--family-sizes", action="store_true",
                    help="check family formula lengths against the "
                         "per-level bound")
    au.add_argument("--max-level", type=_int_at_least(0, MAX_LEVEL), default=6)
    au.add_argument("--per-level", type=_int_at_least(1), default=100,
                    help="random indices per level above level 3")
    au.add_argument("--growth-cert", action="store_true",
                    help="certify the family-count growth level")
    au.add_argument("--sizes", action="store_true",
                    help="check the quadratic output bound on a random corpus")
    au.add_argument("--corpus", type=_int_at_least(1), default=50, metavar="N")
    au.add_argument("--max-length", type=_int_at_least(4), default=400)
    au.add_argument("--seed", type=int, default=7)

    return parser


def _int_at_least(low: int, high: int | None = None):
    """An argparse type: an int no smaller than ``low`` and, when
    ``high`` is given, no larger than it."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(
                f"must be at most {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports "invalid int value" by this name
    return parse


def _logic_flags(cmd: argparse.ArgumentParser) -> None:
    group = cmd.add_mutually_exclusive_group()
    group.add_argument("--fs", action="store_true",
                       help="FS semantics (default)")
    group.add_argument("--mipc", action="store_true",
                       help="MIPC semantics (total per-world relations)")


def _budget_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--max-worlds", type=int, default=3, metavar="N")
    cmd.add_argument("--max-points", type=int, default=3, metavar="N")
    cmd.add_argument("--vars", type=int, default=None, metavar="N",
                     help="variable bound (default: the formula's variables)")
    cmd.add_argument("--max-candidates", type=int, default=None, metavar="N",
                     help="stop after testing N candidate models")
    cmd.add_argument("--time-cap-ms", type=float, default=None, metavar="MS",
                     help="stop after MS milliseconds")


_COMMANDS = {
    "translate": cmd_translate,
    "family": cmd_family,
    "check": cmd_check,
    "refute": cmd_refute,
    "audit": cmd_audit,
}


def main(argv: list[str] | None = None, out=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_ERROR if err.code not in (0, None) else EXIT_OK
    out = out if out is not None else sys.stdout
    try:
        code = _COMMANDS[args.command](args, out)
        out.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except ValueError as err:
        print(f"error\t{err}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error\tout of memory: the result is too large", file=sys.stderr)
        return EXIT_ERROR
    except KeyboardInterrupt:
        print("error\tinterrupted", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # The reader closed stdout.  Point it at the null device, so that
        # the flush at interpreter exit has nowhere left to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
