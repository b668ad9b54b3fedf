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

``delta``, ``big-delta`` and ``bounds`` build one record per report:
``--json`` prints it, and text output prints its fields as ``name = value``
lines.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, fields, replace

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
    except RecursionError as exc:
        raise FileFormatError("not valid JSON: nested too deeply") from exc

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
    for i, rec in enumerate(raw_states):
        amps = rec.get("amplitudes")
        if not isinstance(amps, list):
            raise FileFormatError(f"'amplitudes' of state {i} must be a list of [re, im] pairs")
        if len(amps) != dims[0] * dims[1]:  # the product is never printed: dims may be absurd
            raise FileFormatError(f"'dims' do not match the {len(amps)} amplitudes of state {i}")
        try:
            if any(isinstance(x, bool) for pair in amps for x in pair):
                raise TypeError("boolean amplitude")
            vec = np.array([complex(re, im) for re, im in amps])
        except (TypeError, ValueError, OverflowError) as exc:
            raise FileFormatError("amplitudes must be [re, im] pairs") from exc
        norm = np.linalg.norm(vec)
        if not abs(norm - 1.0) <= TOL.input_norm:
            raise FileFormatError(f"state norm {norm} deviates from 1 beyond {TOL.input_norm}")
        states.append(PureState(dims, vec / norm))
        if all(have_probs):
            p = rec["probability"]
            # NaN, Infinity and integers beyond float range parse: reject them
            # with the booleans
            if isinstance(p, bool) or not isinstance(p, (int, float)) \
                    or not 0 < p < sys.float_info.max:
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


def _source(e: Ensemble, args) -> str:
    return e.name or args.file or ""


def _mode_from(args) -> Mode:
    return Mode(args.mode, args.depth, args.restarts, args.seed, args.rotate)


def _mode_record(mode: Mode) -> dict:
    return {f"mode_{key}": value for key, value in asdict(mode).items()}


_VALUE_SUFFIX = {"right": "right", "left": "left", "symmetric": "sym"}


def _report_record(report: QuantifierReport, source: str) -> dict:
    """The record of a quantifier report, read off its fields: the values as
    ``{delta|Delta}_{right,left,sym}``, the mode flattened, tuples as lists,
    None fields left out."""
    key = "delta" if report.quantity == "delta" else "Delta"
    record = {"source": source}
    for f in fields(report):
        value = getattr(report, f.name)
        if f.name == "mode":
            record.update(_mode_record(value))
        elif f.name in _VALUE_SUFFIX:
            record[f"{key}_{_VALUE_SUFFIX[f.name]}"] = value
        elif value is not None:
            record[f.name] = list(value) if isinstance(value, tuple) else value
    return record


def _text(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(_text(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    return "n/a" if value is None else str(value)


def _print_record(record: dict, skip: str | None = None, prefix: str = "") -> None:
    """One ``name = value`` line per field of ``record``: floats to 6 places,
    sequences joined by spaces, a nested dict's fields under the joined names,
    None as n/a, booleans as true or false. Names with ``skip`` as one of
    their ``_``-separated words are left out."""
    for key, value in record.items():
        name = prefix + key
        if skip in name.split("_"):
            continue
        if isinstance(value, dict):
            _print_record(value, skip, f"{name}_")
        else:
            print(f"{name} = {_text(value)}")


def _emit(record: dict, args, skip: str | None = None) -> None:
    """``record`` as one JSON line with ``--json``, else as ``name = value`` lines."""
    if args.json:
        _emit_json(record)
    else:
        _print_record(record, skip)


def _emit_json(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


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
    # --direction right|left drops the other direction's fields from the text
    other = {"right": "left", "left": "right"}.get(args.direction)
    _emit(_report_record(report, _source(e, args)), args, other)
    return 0


def _cmd_dissect(args) -> int:
    e = _resolve_ensemble(args)
    pset = as_product_set(e)
    first = None if args.first == "any" else args.first
    tree = dissect(pset, first)
    label = classify(pset)
    if args.json:
        _emit_json({"source": _source(e, args), "first": args.first, "classification": label,
                    "tree": _tree_record(tree)})
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
    record = {"source": _source(e, args), **asdict(report), "applicable": report.applicable}
    del record["product_input"]
    _emit(record, args)
    return 0


def _cmd_catalog(args) -> int:
    if args.catalog_command != "list":
        raise NleError("unknown catalog subcommand")
    rows = [replace(r, parameters={k: v for k, v in r.parameters.items() if v is not None})
            for r in catalog.entries()]  # None defaults are not listed
    if args.json:
        _emit_json({"entries": [asdict(r) for r in rows]})
        return 0
    for r in rows:
        flags = "product" if r.product else "entangled-members"
        params = ""
        if r.parameters:
            shown = {k: round(v, 6) for k, v in r.parameters.items()}
            params = f" params={shown}"
        print(f"{r.name:20s} {r.dims[0]}x{r.dims[1]}  {r.size} states  [{flags}]{params}")
        print(f"{'':20s} {r.description}")
    return 0


def _cmd_show(args) -> int:
    e = _resolve_ensemble(args)
    if args.json:
        states = [[[float(a.real), float(a.imag)] for a in s.amplitudes] for s in e.states]
        _emit_json({"source": _source(e, args), "dims": list(e.dims), "size": len(e),
                    "probabilities": list(e.probabilities), "orthogonal": e.is_orthogonal(),
                    "product": e.is_product(), "states": states})
        return 0
    print(f"ensemble: {_source(e, args)}")
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
    except NleError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_PARSE if isinstance(exc, FileFormatError) else EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
