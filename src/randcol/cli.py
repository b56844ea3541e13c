"""Command-line front end.

Subcommands map one-to-one onto library entry points; everything prints
a JSON summary to stdout so runs are scriptable, and graphs travel as
the plain-text edge-list format.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .colouring import chromatic_number_exact, t_core, DEFAULT_NODE_BUDGET
from .errors import InputError, RandcolError
from .generators import (
    ConstructionParams,
    _as_fraction,
    blow_up,
    find_cubic_expander,
    gadget_blow_up,
    random_regular_graph,
    random_two_regular_digraph,
    save_layout,
)
from .graphs import DiGraph, Graph, _expect, load_graph, save_graph
from .harness import load_config, run_experiment
from .percolation import (
    t_core_via_percolation,
    thm3_fixpoint_violations,
    thm3_process,
    thm4_fixpoint_violations,
    thm4_process,
)
from .sampling import RngStream, sample_subgraph, two_round_sample
from .verify import SUITE_NAMES, run_suite


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _unread(args, mode: str, *flags) -> None:
    """InputError naming the first of flags that is given, none of which mode reads."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise InputError(f"{mode} does not read {flag}")


def cmd_generate(args) -> int:
    if args.digraph:
        _unread(args, "--digraph", "--lambda2-max", "--girth-min")
        if args.d not in (None, 2):
            raise InputError("--digraph generates 2-in/2-out graphs; drop --d or use --d 2")
        g = random_two_regular_digraph(args.n, args.seed)
        save_graph(g, args.out)
        _emit({"kind": "two_regular_digraph", "n": g.n, "arcs": len(g.arcs), "out": args.out})
        return 0
    d = args.d if args.d is not None else 3
    wants_spectral = args.lambda2_max is not None or args.girth_min is not None
    if d == 3 and wants_spectral:
        girth_min = args.girth_min if args.girth_min is not None else 6
        g, lambda2 = find_cubic_expander(
            args.n,
            args.seed,
            lambda2_max=args.lambda2_max if args.lambda2_max is not None else 2.9,
            girth_min=girth_min,
        )
        save_graph(g, args.out)
        _emit(
            {
                "kind": "cubic_expander",
                "n": g.n,
                "m": g.m,
                "lambda2": lambda2,
                "girth_min_checked": girth_min,
                "out": args.out,
            }
        )
        return 0
    if wants_spectral:
        raise InputError("spectral/girth filtering is only implemented for --d 3")
    g = random_regular_graph(args.n, d, args.seed)
    save_graph(g, args.out)
    _emit({"kind": "random_regular", "n": g.n, "d": d, "m": g.m, "out": args.out})
    return 0


def cmd_construct(args) -> int:
    if args.mode == "thm3":
        _unread(args, "--mode thm3", "--s")
        if args.alpha is None:
            raise InputError("--mode thm3 needs --alpha")
        params = ConstructionParams.thm3(args.k, args.alpha)
        h = _expect(load_graph(args.h_file), Graph, f"--h-file {args.h_file}")
        if h.regular_degree() != 3:
            raise InputError("the expander blow-up needs a cubic base graph")
        g, layout = blow_up(h, params.m)
    else:
        if args.s is None:
            raise InputError("--mode thm4 needs --s")
        params = ConstructionParams.thm4(args.k, args.s, args.alpha)
        h = _expect(load_graph(args.h_file), DiGraph, f"--h-file {args.h_file}")
        g, layout = gadget_blow_up(h, params)
    save_graph(g, args.out)
    layout_path = args.layout_out if args.layout_out else args.out + ".layout"
    save_layout(layout, layout_path)
    _emit(
        {
            "mode": params.mode,
            "k": params.k,
            "t": params.t,
            "layer_size": params.m,
            "layers": params.layers(),
            "n": g.n,
            "m": g.m,
            "out": args.out,
            "layout_out": layout_path,
        }
    )
    return 0


def cmd_sample(args) -> int:
    g = _expect(load_graph(args.infile), Graph, f"--in {args.infile}")
    stream = RngStream(args.seed).child("cli-sample")
    given = [x is not None for x in (args.p, args.alpha, args.first_rate)]
    if sum(given) != 1:
        raise InputError("give exactly one of --p, --alpha, --first-rate")
    if args.p is not None:
        sub = sample_subgraph(g, args.p, stream)
        mode = {"mode": "one_round", "p": args.p}
    else:
        if args.alpha is not None:
            rate = _as_fraction(args.alpha) / 3
        else:
            rate = _as_fraction(args.first_rate, "first rate")
        sub = two_round_sample(g, rate, stream).survivors()
        mode = {"mode": "two_round", "first_rate": str(rate)}
    save_graph(sub, args.out)
    _emit({**mode, "kept_edges": sub.m, "of": g.m, "out": args.out})
    return 0


def cmd_core(args) -> int:
    g = _expect(load_graph(args.infile), Graph, f"--in {args.infile}")
    core = t_core(g, args.t)
    vertices = np.flatnonzero(core).tolist()
    _emit({"t": args.t, "core_size": len(vertices), "empty": not vertices, "vertices": vertices})
    return 0


def cmd_chroma(args) -> int:
    g = _expect(load_graph(args.infile), Graph, f"--in {args.infile}")
    res = chromatic_number_exact(g, budget=args.budget)
    _emit(
        {
            "num_colours": res.num_colours,
            "exact": res.exact,
            "lower_bound": res.lower_bound,
        }
    )
    return 0


def cmd_percolate(args) -> int:
    stream = RngStream(args.seed).child("cli-percolate")
    if args.process == "threshold":
        _unread(args, "--process threshold", "--p")
        if args.t is None:
            raise InputError("--process threshold needs --t")
        g = _expect(load_graph(args.infile), Graph, f"--in {args.infile}")
        core_size = int(np.count_nonzero(t_core_via_percolation(g, args.t)))
        _emit({"process": "threshold", "t": args.t, "core_size": core_size, "removed": g.n - core_size})
        return 0
    _unread(args, f"--process {args.process}", "--t")
    if args.p is None:
        raise InputError(f"--process {args.process} needs --p")
    if args.process == "thm3":
        g = _expect(load_graph(args.infile), Graph, f"--in {args.infile}")
        state = thm3_process(g, args.p, args.root, stream)
        violations = thm3_fixpoint_violations(g, state)
    else:
        h = _expect(load_graph(args.infile), DiGraph, f"--in {args.infile}")
        state = thm4_process(h, args.p, args.root, stream)
        violations = thm4_fixpoint_violations(h, state)
    _emit(
        {
            "process": args.process,
            "p": args.p,
            "root": args.root,
            "infected": int(np.count_nonzero(state.infected)),
            "rounds": len(state.round_trace),
            "audit_violations": len(violations),
        }
    )
    return 0 if not violations else 1


def cmd_experiment(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_path=args.out)
    _emit(result.aggregate)
    return 1 if result.aggregate["errors"] else 0


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = [run_suite(name) for name in names]
    for report in reports:
        sys.stdout.write(report.format_text())
    if args.report:
        payload = [r.to_dict() for r in reports]
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return 0 if all(r.passed for r in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randcol",
        description="Random-subgraph colouring toolkit: generators, cores, "
        "colouring, percolation processes, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="random regular (di)graphs and cubic expanders")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda2-max", type=float, default=None)
    p.add_argument("--girth-min", type=int, default=None)
    p.add_argument("--digraph", action="store_true", help="2-in/2-out digraph with coloured in-arcs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("construct", help="blow-up constructions")
    p.add_argument("--mode", choices=("thm3", "thm4"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--h-file", dest="h_file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--layout-out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sample", help="one-round or two-round edge sampling")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--alpha", default=None, help="two-round with first rate alpha/3")
    p.add_argument("--first-rate", default=None, help="two-round with this explicit first rate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("core", help="t-core by peeling")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("chroma", help="exact chromatic number (branch and bound)")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.set_defaults(func=cmd_chroma)

    p = sub.add_parser("percolate", help="bootstrap-style spreading processes")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--process", choices=("thm3", "thm4", "threshold"), required=True)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_percolate)

    p = sub.add_parser("experiment", help="run a config file of Monte Carlo trials")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="override the config's output path")
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("verify", help="run an invariant suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--report", default=None, help="write a JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RandcolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
