import contextlib
import copy
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nle.cli import load_ensemble_file, main
from nle.config import MAX_DEPTH, MAX_DIM_PRODUCT, MAX_MEMBERS, MAX_RESTARTS
from nle.errors import FileFormatError

ROOT2 = 1 / math.sqrt(2)
FILE_COMMANDS = ("delta", "big-delta", "dissect", "bounds", "show")  # every reader of --file


# what a mutation puts in place of a value: each type JSON has, numbers beyond
# float range, and the non-finite literals json.dumps writes
SWAPS = ("1", "", True, False, None, [], {}, 0, -1, 2, 0.5, 1e-300)
EXTREMES = (10**400, -(10**400), math.nan, math.inf, -math.inf)


def _mutate(draw, doc):
    """``doc`` with one value, found by a random walk from the root, replaced
    by another type or an extreme number, shortened or lengthened, given an
    extra or a missing key, or nested up to 40 lists deep."""
    root = {"doc": copy.deepcopy(doc)}
    holder, key = root, "doc"
    while isinstance(holder[key], (dict, list)) and holder[key] and draw(st.integers(0, 3)):
        node = holder[key]
        holder, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
    value = holder[key]
    kind = draw(st.sampled_from(["swap", "extreme", "length", "keys", "nest"]))
    if kind == "swap":
        holder[key] = draw(st.sampled_from(SWAPS))
    elif kind == "extreme":
        holder[key] = draw(st.sampled_from(EXTREMES))
    elif kind == "length" and isinstance(value, list) and value and draw(st.booleans()):
        value.pop(draw(st.integers(0, len(value) - 1)))
    elif kind == "length" and isinstance(value, list):
        value.append(copy.deepcopy(value[-1]) if value else 0)
    elif kind == "length":
        holder[key] = [value]
    elif kind == "keys" and isinstance(value, dict) and value and draw(st.booleans()):
        del value[draw(st.sampled_from(sorted(value)))]
    elif kind == "keys":
        holder[key] = dict(value, extra=1) if isinstance(value, dict) else {"value": value}
    else:
        for _ in range(draw(st.integers(1, 40))):
            holder[key] = [holder[key]]
    return root["doc"]


@st.composite
def fuzzed_documents(draw):
    """A valid ensemble document, with up to three mutations; each member is a
    basis state or an equal superposition of two, which may be entangled."""
    d_a, d_b, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    states = []
    for _ in range(k):
        amplitudes = [[0, 0] for _ in range(d_a * d_b)]
        support = draw(st.lists(st.integers(0, d_a * d_b - 1), min_size=1, max_size=2, unique=True))
        for i in support:
            amplitudes[i] = [draw(st.sampled_from([1, -1])) / math.sqrt(len(support)), 0]
        states.append({"amplitudes": amplitudes})
    if draw(st.booleans()):
        for state in states:
            state["probability"] = 1 / k
    doc = {"dims": [d_a, d_b], "states": states}
    for _ in range(draw(st.integers(0, 3))):
        doc = _mutate(draw, doc)
    return doc


@pytest.fixture
def bell_pair_file(tmp_path):
    doc = {
        "dims": [2, 2],
        "states": [
            {"amplitudes": [[ROOT2, 0], [0, 0], [0, 0], [ROOT2, 0]]},
            {"amplitudes": [[ROOT2, 0], [0, 0], [0, 0], [-ROOT2, 0]]},
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def product_file(tmp_path):
    doc = {
        "dims": [2, 2],
        "states": [
            {"probability": 0.25, "amplitudes": [[1, 0], [0, 0], [0, 0], [0, 0]]},
            {"probability": 0.25, "amplitudes": [[0, 0], [1, 0], [0, 0], [0, 0]]},
            {"probability": 0.25, "amplitudes": [[0, 0], [0, 0], [1, 0], [0, 0]]},
            {"probability": 0.25, "amplitudes": [[0, 0], [0, 0], [0, 0], [1, 0]]},
        ],
    }
    path = tmp_path / "basis.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _nan_after_the_gate(monkeypatch):
    """NaN entanglement for every member after a fixed ``CNOT^r``: the family
    memo hands ``states.entropy_bits`` its ``(C, k, min(d_A, d_B))`` spectra,
    the one three-axis input that kernel gets in these calls."""
    from nle import states

    original = states.entropy_bits

    def nan_after_the_gate(spectrum):
        return np.full(spectrum.shape[:-1], np.nan) if spectrum.ndim == 3 else original(spectrum)

    monkeypatch.setattr(states, "entropy_bits", nan_after_the_gate)


class TestDeltaCommand:
    def test_nlwe_fixed(self, capsys):
        assert main(["delta", "--ensemble", "nlwe-3x3", "--mode", "fixed"]) == 0
        out = capsys.readouterr().out
        assert "delta_sym = 0.444444" in out
        assert "delta_right = 0.444444" in out

    def test_e1_fixed(self, capsys):
        assert main(["delta", "--ensemble", "e1-computational", "--mode", "fixed"]) == 0
        assert "delta_sym = 0.000000" in capsys.readouterr().out

    def test_non_product_rejected(self, capsys):
        assert main(["delta", "--ensemble", "bell-pair"]) == 2
        assert "not-product-ensemble" in capsys.readouterr().err

    def test_unknown_ensemble(self, capsys):
        assert main(["delta", "--ensemble", "nope"]) == 2
        assert "no-such-entry" in capsys.readouterr().err

    def test_nan_value_is_domain_error(self, capsys, monkeypatch):
        # the fixed candidates' entanglement comes from the ensemble's memo
        _nan_after_the_gate(monkeypatch)
        assert main(["delta", "--ensemble", "e2-case2", "--mode", "fixed"]) == 2
        assert "bad-value" in capsys.readouterr().err

    def test_nan_contribution_is_domain_error(self, capsys, monkeypatch):
        # the gap itself is finite; NaN member entropies must not reach the
        # JSON, which has no NaN
        _nan_after_the_gate(monkeypatch)
        assert main(["big-delta", "--ensemble", "bell-triple", "--json"]) == 2
        captured = capsys.readouterr()
        assert "bad-value" in captured.err and captured.out == ""

    def test_file_input_deterministic_json(self, capsys, product_file):
        argv = [
            "delta", "--file", product_file, "--mode", "ensemble-lu",
            "--restarts", "3", "--seed", "7", "--json",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        record = json.loads(first)
        assert record["mode_seed"] == 7
        assert set(record) >= {"delta_right", "delta_left", "delta_sym"}


class TestBigDeltaCommand:
    def test_bell_triple_assign(self, capsys):
        assert main(["big-delta", "--ensemble", "bell-triple", "--mode", "assign"]) == 0
        assert "Delta_right = 0.081704" in capsys.readouterr().out

    def test_mixed_triple_assign(self, capsys):
        assert main(["big-delta", "--ensemble", "more-nl-mixed", "--mode", "assign"]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if l.startswith("Delta_right")).split("=")[1])
        assert abs(value - 1.43552) <= 1e-4

    def test_bell_full_assign(self, capsys):
        assert main(["big-delta", "--ensemble", "bell-full", "--mode", "assign"]) == 0
        assert "Delta_right = 0.000000" in capsys.readouterr().out

    def test_assign_on_file_pair(self, capsys, bell_pair_file):
        assert main(["big-delta", "--file", bell_pair_file, "--mode", "assign"]) == 0
        assert "Delta_right = 1.000000" in capsys.readouterr().out


class TestDissectCommand:
    def test_e2_first_b_irreducible_root(self, capsys):
        assert main(["dissect", "--ensemble", "e2-case2", "--first", "B"]) == 0
        out = capsys.readouterr().out
        assert "leaf: irreducible" in out.splitlines()[0]

    def test_e2_first_a_full(self, capsys):
        assert main(["dissect", "--ensemble", "e2-case2", "--first", "A"]) == 0
        out = capsys.readouterr().out
        assert out.count("leaf: singleton") == 4
        assert "classification: dissectible-one-side(A)" in out

    def test_tiles_non_dissectible(self, capsys):
        assert main(["dissect", "--ensemble", "tiles-upb"]) == 0
        assert "non-dissectible" in capsys.readouterr().out

    def test_entangled_input_rejected(self, capsys):
        assert main(["dissect", "--ensemble", "bell-pair"]) == 2


class TestBoundsCommand:
    def test_bell_full(self, capsys):
        assert main(["bounds", "--ensemble", "bell-full"]) == 0
        out = capsys.readouterr().out
        assert "chi = 2.000000" in out
        assert "local_holevo = 1.000000" in out

    def test_nlwe(self, capsys):
        assert main(["bounds", "--ensemble", "nlwe-3x3"]) == 0
        out = capsys.readouterr().out
        value = float(next(l for l in out.splitlines() if l.startswith("local_holevo")).split("=")[1])
        assert abs(value - 2 * math.log2(3)) <= 1e-6

    def test_file_schema_complete(self, capsys, bell_pair_file):
        assert main(["bounds", "--file", bell_pair_file, "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        for key in ("chi", "local_holevo", "cnot_lower_comparator", "cnot_upper_bound"):
            assert key in record


class TestCatalogAndShow:
    def test_catalog_list(self, capsys):
        assert main(["catalog", "list"]) == 0
        out = capsys.readouterr().out
        assert "nlwe-3x3" in out
        assert "tiles-upb" in out

    def test_catalog_list_json(self, capsys):
        assert main(["catalog", "list", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in record["entries"]]
        assert "canonical-mes" in names

    def test_show(self, capsys):
        assert main(["show", "--ensemble", "bell-pair"]) == 0
        out = capsys.readouterr().out
        assert "orthogonal: True" in out
        assert "product: False" in out


class TestEveryCatalogName:
    def test_commands_never_crash(self, capsys):
        from nle import catalog

        for entry in catalog.entries():
            for argv in (
                ["delta", "--ensemble", entry.name, "--mode", "fixed"],
                ["big-delta", "--ensemble", entry.name, "--mode", "fixed"],
                ["dissect", "--ensemble", entry.name],
                ["bounds", "--ensemble", entry.name],
                ["show", "--ensemble", entry.name],
            ):
                code = main(argv)
                capsys.readouterr()
                assert code in (0, 2), (entry.name, argv, code)


class TestReproduceCommand:
    def test_other_commands_leave_the_table_unloaded(self):
        code = (
            "import sys\n"
            "from nle.cli import main\n"
            "assert main(['delta', '--ensemble', 'e2-case2', '--mode', 'fixed']) == 0\n"
            "assert 'nle.reproduce' not in sys.modules\n"
            "assert main(['reproduce', '--json']) == 0\n"
            "assert 'nle.reproduce' in sys.modules\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL)

    def test_exit_code_tracks_failures(self, capsys, monkeypatch):
        from nle import reproduce

        rows_ok = [reproduce.Row("x", "1", "1", "-", "PASS")]
        monkeypatch.setattr(reproduce, "run_rows", lambda **kw: rows_ok)
        assert main(["reproduce"]) == 0
        assert "passed: 1" in capsys.readouterr().out

        rows_bad = rows_ok + [reproduce.Row("y", "2", "3", "-", "FAIL")]
        monkeypatch.setattr(reproduce, "run_rows", lambda **kw: rows_bad)
        assert main(["reproduce"]) == 1

        rows_diff = rows_ok + [reproduce.Row("z", "2", "3", "-", "KNOWN-DIFF", "note")]
        monkeypatch.setattr(reproduce, "run_rows", lambda **kw: rows_diff)
        assert main(["reproduce"]) == 0
        assert "known-diff: 1" in capsys.readouterr().out

    def test_json_shape(self, capsys, monkeypatch):
        from nle import reproduce

        monkeypatch.setattr(
            reproduce,
            "run_rows",
            lambda **kw: [reproduce.Row("x", "1", "1", "-", "PASS")],
        )
        assert main(["reproduce", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["rows"][0]["status"] == "PASS"


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--ensemble", "bell-full", "--direction", "both"],
        ["reproduce", "--seed", "1"],
        ["reproduce", "--restarts", "4"],
    ],
)
def test_removed_options_are_usage_errors(argv):
    # `bounds --direction both` used to report the right direction alone
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


class TestFileLoading:
    def test_loads_with_probabilities(self, product_file):
        e = load_ensemble_file(product_file)
        assert len(e) == 4
        assert abs(sum(e.probabilities) - 1.0) <= 1e-12

    def test_rejects_bad_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["delta", "--file", str(path)]) == 3

    def test_rejects_bad_norm(self, tmp_path):
        doc = {"dims": [2, 1], "states": [{"amplitudes": [[1, 0], [1, 0]]}]}
        path = tmp_path / "unnormalized.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_ensemble_file(str(path))

    def test_rejects_partial_probabilities(self, tmp_path):
        doc = {
            "dims": [2, 1],
            "states": [
                {"probability": 0.5, "amplitudes": [[1, 0], [0, 0]]},
                {"amplitudes": [[0, 0], [1, 0]]},
            ],
        }
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_ensemble_file(str(path))

    def test_rejects_bad_prob_sum(self, tmp_path):
        doc = {
            "dims": [2, 1],
            "states": [
                {"probability": 0.5, "amplitudes": [[1, 0], [0, 0]]},
                {"probability": 0.4, "amplitudes": [[0, 0], [1, 0]]},
            ],
        }
        path = tmp_path / "sum.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FileFormatError):
            load_ensemble_file(str(path))

    @pytest.mark.parametrize("probability", ["NaN", "true"])
    def test_rejects_nan_or_boolean_probability(self, tmp_path, capsys, probability):
        # json.load accepts NaN, and true is an int to Python
        path = tmp_path / "prob.json"
        path.write_text(
            '{"dims": [2, 1], "states": '
            f'[{{"probability": {probability}, "amplitudes": [[1, 0], [0, 0]]}}]}}'
        )
        assert main(["delta", "--file", str(path)]) == 3
        assert main(["big-delta", "--file", str(path)]) == 3
        assert "probabilities must be finite positive numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"dims": [True, 2], "states": [{"amplitudes": [[1, 0], [0, 0]]}]},
            {"dims": [2, 1], "states": [{"amplitudes": [[True, 0], [0, 0]]}]},
        ],
        ids=["dims", "amplitude"],
    )
    def test_rejects_boolean_numbers(self, tmp_path, capsys, doc):
        # true is an int to Python; as a dimension it used to crash every command
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc))
        for command in FILE_COMMANDS:
            assert main([command, "--file", str(path)]) == 3, command
        assert capsys.readouterr().err.count("error [bad-file]") == len(FILE_COMMANDS)

    @pytest.mark.parametrize(
        "text",
        [
            '{"dims": [2, 1], "states": [{"amplitudes": [[1%s, 0], [0, 0]]}]}' % ("0" * 400),
            '{"dims": [2, 1], "states": [{"probability": 1%s, "amplitudes": [[1, 0], [0, 0]]}]}'
            % ("0" * 400),
            "[" * 100_000 + "]" * 100_000,
        ],
        ids=["amplitude-401-digits", "probability-401-digits", "array-100000-deep"],
    )
    def test_rejects_numbers_beyond_float_and_deep_nesting(self, tmp_path, capsys, text):
        # numbers beyond float range and nesting past the parser's depth are bad files
        path = tmp_path / "huge.json"
        path.write_text(text)
        for command in FILE_COMMANDS:
            assert main([command, "--file", str(path)]) == 3, command
        assert capsys.readouterr().err.count("error [bad-file]") == len(FILE_COMMANDS)

    @pytest.mark.parametrize("dims", [[10**200, 2], [2, 10**200], [3, 3]])
    def test_dims_that_do_not_match_are_reported_as_dims(self, tmp_path, capsys, dims):
        # the product of absurd dims is a 201-digit number; it is never printed
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"dims": dims, "states": [{"amplitudes": [[1, 0], [0, 0]]}]}))
        for command in FILE_COMMANDS:
            assert main([command, "--file", str(path)]) == 3, command
        err = capsys.readouterr().err
        assert err.count("'dims' do not match the 2 amplitudes of state 0") == len(FILE_COMMANDS)
        assert not any(len(word) > 20 for word in err.split())

    @pytest.mark.parametrize("dims,members", [((MAX_DIM_PRODUCT + 1, 1), 1),
                                              ((1, 1), MAX_MEMBERS + 1)], ids=["dims", "members"])
    def test_too_large_exits_as_domain_error(self, tmp_path, capsys, dims, members):
        amplitudes = [[1, 0]] + [[0, 0]] * (dims[0] * dims[1] - 1)
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"dims": dims, "states": [{"amplitudes": amplitudes}] * members}))
        for command in FILE_COMMANDS:
            assert main([command, "--file", str(path)]) == 2, command
        assert capsys.readouterr().err.count("error [too-large]") == len(FILE_COMMANDS)

    @pytest.mark.parametrize("flag,value", [("--restarts", MAX_RESTARTS + 1),
                                            ("--depth", MAX_DEPTH + 1)], ids=["restarts", "depth"])
    def test_search_sizes_beyond_the_limits_exit_as_domain_error(self, capsys, flag, value):
        argv = ["delta", "--ensemble", "case-3x2", "--mode", "ensemble-lu", flag, str(value)]
        assert main(argv) == 2
        assert "error [too-large]" in capsys.readouterr().err

    @given(document=fuzzed_documents())
    @settings(max_examples=120, deadline=None)
    def test_fuzzed_documents_exit_with_a_code(self, tmp_path_factory, document):
        # every run exits 0, 2 (domain) or 3 (bad file), and none raises
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(document))
        for command in FILE_COMMANDS:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main([command, "--file", str(path)]) in (0, 2, 3), (command, document)

    def test_missing_source_is_domain_error(self, capsys):
        assert main(["delta"]) == 2


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_reuse_keeps_each_call_independent(capsys):
    from nle import cli

    argvs = [
        ["delta", "--ensemble", "nlwe-3x3", "--json"],
        ["bounds", "--ensemble", "case-3x2", "--direction", "left", "--json"],
        ["big-delta", "--ensemble", "bell-triple"],
        ["delta", "--ensemble", "nlwe-3x3", "--mode", "no-such-mode"],
        ["delta", "--ensemble", "e2-case2", "--json"],
    ]
    in_sequence = [_outcome(argv, capsys) for argv in argvs]
    assert cli._parser() is cli._parser()
    alone = []
    for argv in argvs:
        cli._parser.cache_clear()  # a fresh parser, as in a new process
        alone.append(_outcome(argv, capsys))
    assert in_sequence == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 2, 0]
    assert "invalid choice" in alone[3][2]
    assert json.loads(alone[1][1])["direction"] == "left"


def _leaves(record: dict, prefix: str = ""):
    """(name, value) of each leaf of a JSON record, nested names joined by ``_``."""
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}_")
        else:
            yield prefix + key, value


def _shows(text: str, value) -> bool:
    """Whether ``text`` is the printed form of the JSON value ``value``."""
    if isinstance(value, list):
        words = text.split()
        return len(words) == len(value) and all(map(_shows, words, value))
    if isinstance(value, bool):
        return text == str(value).lower()
    if isinstance(value, float):
        return abs(float(text) - value) <= 5e-7
    return text == ("n/a" if value is None else str(value))


def _record_and_lines(capsys, argv):
    """The JSON record of ``argv`` and its text output as name -> value."""
    assert main(argv + ["--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    printed = dict(line.split(" = ", 1) for line in lines)
    assert len(printed) == len(lines)  # one line per name
    return record, printed


LU = ["--restarts", "1", "--seed", "2"]
REPORTS = [
    ["delta", "--ensemble", "case-3x2", "--mode", "fixed"],
    ["delta", "--ensemble", "case-3x2", "--mode", "ensemble-lu", *LU],
    ["delta", "--ensemble", "case-3x2", "--mode", "per-state-lu", "--rotate", "target"],
    ["big-delta", "--ensemble", "bell-triple", "--mode", "fixed"],
    ["big-delta", "--ensemble", "bell-triple", "--mode", "ensemble-lu", *LU],
    ["big-delta", "--ensemble", "bell-triple", "--mode", "assign"],
    ["bounds", "--ensemble", "case-3x2", "--direction", "right"],
    ["bounds", "--ensemble", "case-3x2", "--direction", "left"],
    ["bounds", "--ensemble", "bell-triple", "--direction", "left"],
]


@pytest.mark.parametrize("argv", REPORTS, ids=" ".join)
def test_text_prints_each_json_field_once(capsys, argv):
    record, printed = _record_and_lines(capsys, argv)
    leaves = dict(_leaves(record))
    assert printed.keys() == leaves.keys()
    for name, value in leaves.items():
        assert _shows(printed[name], value), (name, printed[name], value)


@pytest.mark.parametrize("argv", [r for r in REPORTS if r[0] != "bounds"], ids=" ".join)
@pytest.mark.parametrize("direction,other", [("right", "left"), ("left", "right")])
def test_direction_drops_the_other_directions_fields(capsys, argv, direction, other):
    record, printed = _record_and_lines(capsys, argv + ["--direction", direction])
    kept = {name for name, _ in _leaves(record) if other not in name.split("_")}
    assert printed.keys() == kept
    assert not [name for name in printed if name.endswith(f"_{other}") or f"_{other}_" in name]
