"""Command-line front end.

Commands: ``delta``, ``big-delta``, ``dissect``, ``bounds``, ``catalog list``,
``show``, ``reproduce``. Ensembles come either from the built-in catalog
(``--ensemble NAME``) or from a JSON document (``--file PATH``) with the
schema::

    {"dims": [dA, dB],
     "states": [{"probability": 0.5, "amplitudes": [[re, im], ...]}, ...]}

Probabilities are optional (uniform when absent for all states); complex
amplitudes are two-element [re, im] arrays of length dA*dB. Exit codes:
0 success, 2 domain error, 3 unparseable input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import catalog
from .config import TOL
from .dissect import as_product_set, classify, dissect
from .errors import FileFormatError, NleError
from .infobounds import cnot_bounds
from .quantify import (
    MODE_NAMES,
    ROTATE_CHOICES,
    Mode,
    QuantifierReport,
    average_entropy_gap,
    nonlocal_entropy,
)
from .states import Ensemble, PureState

EXIT_DOMAIN = 2
EXIT_PARSE = 3


def load_ensemble_file(path: str) -> Ensemble:
    """Load and validate an ensemble document; raises FileFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from exc

    if not isinstance(doc, dict) or "dims" not in doc or "states" not in doc:
        raise FileFormatError("document must carry 'dims' and 'states'")
    dims = doc["dims"]
    # JSON true is an int to Python: reject booleans wherever a number is read
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in dims)
    ):
        raise FileFormatError("'dims' must be two positive integers")
    dims = (dims[0], dims[1])
    raw_states = doc["states"]
    if not isinstance(raw_states, list) or not raw_states:
        raise FileFormatError("'states' must be a non-empty list")

    have_probs = ["probability" in s for s in raw_states if isinstance(s, dict)]
    if len(have_probs) != len(raw_states):
        raise FileFormatError("every state must be an object")
    if any(have_probs) and not all(have_probs):
        raise FileFormatError("probabilities must be given for all states or none")

    probs, states = [], []
    for rec in raw_states:
        amps = rec.get("amplitudes")
        if not isinstance(amps, list) or len(amps) != dims[0] * dims[1]:
            raise FileFormatError(f"amplitudes must have length {dims[0] * dims[1]}")
        try:
            if any(isinstance(x, bool) for pair in amps for x in pair):
                raise TypeError("boolean amplitude")
            vec = np.array([complex(re, im) for re, im in amps])
        except (TypeError, ValueError) as exc:
            raise FileFormatError("amplitudes must be [re, im] pairs") from exc
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= TOL.input_norm:
            raise FileFormatError(f"state norm {norm} deviates from 1 beyond {TOL.input_norm}")
        states.append(PureState(dims, vec / norm))
        if all(have_probs):
            p = rec["probability"]
            # NaN and Infinity parse as floats: reject them with the booleans
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 < p < math.inf:
                raise FileFormatError("probabilities must be finite positive numbers")
            probs.append(float(p))
    if probs:
        total = sum(probs)
        if not abs(total - 1.0) <= TOL.input_norm:
            raise FileFormatError(f"probabilities sum to {total}, expected 1")
        probs = [p / total for p in probs]
    else:
        probs = [1.0 / len(states)] * len(states)
    return Ensemble(dims, tuple(probs), tuple(states), name="")


def _resolve_ensemble(args) -> Ensemble:
    if getattr(args, "ensemble", None):
        return catalog.build(args.ensemble)
    if getattr(args, "file", None):
        return load_ensemble_file(args.file)
    raise NleError("give --ensemble NAME or --file PATH")


def _mode_from(args) -> Mode:
    return Mode(args.mode, args.depth, args.restarts, args.seed, args.rotate)


def _mode_record(mode: Mode) -> dict:
    return {f"mode_{key}": value for key, value in asdict(mode).items()}


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _report_record(report: QuantifierReport, source: str) -> dict:
    key = "delta" if report.quantity == "delta" else "Delta"
    record = {
        "quantity": report.quantity,
        "source": source,
        f"{key}_right": report.right,
        f"{key}_left": report.left,
        f"{key}_sym": report.symmetric,
        "contributions_right": list(report.contributions_right),
        "contributions_left": list(report.contributions_left),
        "work": report.work,
    }
    record.update(_mode_record(report.mode))
    for name in ("side_gaps_right", "side_gaps_left"):
        value = getattr(report, name)
        if value is not None:
            record[name] = list(value)
    for name in (
        "reps_right",
        "reps_left",
        "entangled_fraction_right",
        "entangled_fraction_left",
    ):
        value = getattr(report, name)
        if value is not None:
            record[name] = value
    return record


def _print_report(report: QuantifierReport, source: str, direction: str) -> None:
    key = "delta" if report.quantity == "delta" else "Delta"
    mode = report.mode
    print(f"ensemble: {source}")
    print(
        f"mode: {mode.name} (depth={mode.depth}, restarts={mode.restarts}, "
        f"seed={mode.seed}, rotate={mode.rotate})"
    )
    if direction in ("right", "both"):
        print(f"{key}_right = {report.right:.6f}")
    if direction in ("left", "both"):
        print(f"{key}_left = {report.left:.6f}")
    print(f"{key}_sym = {report.symmetric:.6f}")
    if direction in ("right", "both"):
        print("contributions_right:", " ".join(f"{c:.6f}" for c in report.contributions_right))
    if direction in ("left", "both"):
        print("contributions_left:", " ".join(f"{c:.6f}" for c in report.contributions_left))
    if report.side_gaps_right is not None and direction in ("right", "both"):
        g = report.side_gaps_right
        print(f"side_gaps_right: A {g[0]:.6f}  B {g[1]:.6f}")
    if report.side_gaps_left is not None and direction in ("left", "both"):
        g = report.side_gaps_left
        print(f"side_gaps_left: A {g[0]:.6f}  B {g[1]:.6f}")
    if report.entangled_fraction_right is not None:
        print(
            f"entangled_fraction: right {report.entangled_fraction_right:.6f}"
            f"  left {report.entangled_fraction_left:.6f}"
        )
    for direction_key, pairs in report.work.items():
        if direction not in (direction_key, "both"):
            continue
        for party, (w_in, w_fin) in pairs.items():
            print(f"work {party} ({direction_key}): W_in = {w_in:.6f}  W_fin = {w_fin:.6f}")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ensemble", help="catalog entry name")
    p.add_argument("--file", help="path to an ensemble JSON document")
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    defaults = Mode()
    p.add_argument("--mode", default=defaults.name, choices=MODE_NAMES)
    p.add_argument("--direction", default="both", choices=["right", "left", "both"])
    p.add_argument("--depth", type=int, default=defaults.depth)
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--rotate", default=defaults.rotate, choices=ROTATE_CHOICES)


def _cmd_quantifier(args) -> int:
    quantifier = nonlocal_entropy if args.command == "delta" else average_entropy_gap
    e = _resolve_ensemble(args)
    report = quantifier(e, _mode_from(args))
    source = e.name or args.file or ""
    if args.json:
        _emit_json(_report_record(report, source))
    else:
        _print_report(report, source, args.direction)
    return 0


def _cmd_dissect(args) -> int:
    e = _resolve_ensemble(args)
    pset = as_product_set(e)
    first = None if args.first == "any" else args.first
    tree = dissect(pset, first)
    label = classify(pset)
    if args.json:
        _emit_json(
            {
                "source": e.name or args.file or "",
                "first": args.first,
                "classification": label,
                "tree": _tree_record(tree),
            }
        )
    else:
        print(tree.render(pset))
        print(f"classification: {label}")
    return 0


def _tree_record(node) -> dict:
    rec = {"indices": list(node.indices)}
    if node.is_leaf:
        rec["leaf"] = node.leaf_kind
        if node.leaf_kind == "irreducible":
            rec["irreducible_from"] = dict(node.irreducible_from)
    else:
        rec["split_by"] = node.party
        rec["children"] = [_tree_record(c) for c in node.children]
    return rec


def _cmd_bounds(args) -> int:
    e = _resolve_ensemble(args)
    report = cnot_bounds(e, args.direction)
    if args.json:
        record = {
            "source": e.name or args.file or "",
            "chi": report.chi,
            "local_holevo": report.local_holevo,
            "cnot_lower_comparator": report.cnot_lower_comparator,
            "cnot_upper_bound": report.cnot_upper_bound,
            "entangled_members_after": report.entangled_members_after,
            "direction": report.direction,
            "applicable": report.applicable,
        }
        _emit_json(record)
        return 0
    print(f"chi = {report.chi:.6f}")
    print(f"local_holevo = {report.local_holevo:.6f}")
    if report.cnot_lower_comparator is not None:
        print(f"cnot_lower_comparator = {report.cnot_lower_comparator:.6f}")
    else:
        print("cnot_lower_comparator = n/a")
    if report.cnot_upper_bound is not None:
        print(f"cnot_upper_bound = {report.cnot_upper_bound:.6f}")
    else:
        print("cnot_upper_bound = n/a")
    print(f"entangled_members_after = {report.entangled_members_after}")
    for key, flag in report.applicable.items():
        print(f"applies[{key}] = {str(flag).lower()}")
    return 0


def _cmd_catalog(args) -> int:
    if args.catalog_command != "list":
        raise NleError("unknown catalog subcommand")
    rows = catalog.entries()
    if args.json:
        _emit_json(
            {
                "entries": [
                    {
                        "name": r.name,
                        "dims": list(r.dims),
                        "size": r.size,
                        "description": r.description,
                        "parameters": {
                            k: v for k, v in r.parameters.items() if v is not None
                        },
                        "orthogonal": r.orthogonal,
                        "product": r.product,
                    }
                    for r in rows
                ]
            }
        )
        return 0
    for r in rows:
        flags = "product" if r.product else "entangled-members"
        params = ""
        if r.parameters:
            shown = {k: round(v, 6) for k, v in r.parameters.items() if v is not None}
            params = f" params={shown}"
        print(f"{r.name:20s} {r.dims[0]}x{r.dims[1]}  {r.size} states  [{flags}]{params}")
        print(f"{'':20s} {r.description}")
    return 0


def _cmd_show(args) -> int:
    e = _resolve_ensemble(args)
    if args.json:
        _emit_json(
            {
                "source": e.name or args.file or "",
                "dims": list(e.dims),
                "size": len(e),
                "probabilities": list(e.probabilities),
                "orthogonal": e.is_orthogonal(),
                "product": e.is_product(),
                "states": [
                    [[float(a.real), float(a.imag)] for a in s.amplitudes] for s in e.states
                ],
            }
        )
        return 0
    print(f"ensemble: {e.name or args.file or ''}")
    print(f"dims: {e.dims[0]}x{e.dims[1]}  states: {len(e)}")
    print(f"orthogonal: {e.is_orthogonal()}  product: {e.is_product()}")
    for p, s in zip(e.probabilities, e.states):
        amps = " ".join(f"{a.real:+.4f}{a.imag:+.4f}j" for a in s.amplitudes)
        print(f"  p = {p:.6f}  [{amps}]")
    return 0


def _cmd_reproduce(args) -> int:
    from . import reproduce  # the table is only read here, so other commands skip loading it

    rows = reproduce.run_rows()
    if args.json:
        _emit_json({"rows": [asdict(r) for r in rows]})
    else:
        print(reproduce.render(rows))
    return 0 if all(r.status != "FAIL" for r in rows) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nle",
        description="Quantify how hard a bipartite pure-state ensemble is to tell apart locally.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (
        ("delta", "entanglement generated across a product ensemble"),
        ("big-delta", "average-state local-entropy gap"),
    ):
        p = sub.add_parser(name, help=text)
        _add_source_flags(p)
        _add_mode_flags(p)
        p.set_defaults(func=_cmd_quantifier)

    p = sub.add_parser("dissect", help="recursive orthogonal-subspace dissection")
    _add_source_flags(p)
    p.add_argument("--first", default="any", choices=["A", "B", "any"])
    p.set_defaults(func=_cmd_dissect)

    p = sub.add_parser("bounds", help="information-bound report")
    _add_source_flags(p)
    p.add_argument("--direction", default="right", choices=["right", "left"])
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("catalog", help="catalog operations")
    catalog_sub = p.add_subparsers(dest="catalog_command", required=True)
    pl = catalog_sub.add_parser("list", help="list catalog entries")
    pl.add_argument("--json", action="store_true")
    pl.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("show", help="print an ensemble")
    _add_source_flags(p)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("reproduce", help="recompute all benchmark numbers")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_reproduce)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FileFormatError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NleError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
