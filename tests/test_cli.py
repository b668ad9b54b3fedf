import json
import math

import numpy as np
import pytest

from nle.cli import load_ensemble_file, main
from nle.errors import FileFormatError

ROOT2 = 1 / math.sqrt(2)


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
        from nle import quantify

        monkeypatch.setattr(
            quantify, "entanglement_entropies", lambda amps, dims: np.full(len(amps), np.nan)
        )
        assert main(["delta", "--ensemble", "e2-case2", "--mode", "fixed"]) == 2
        assert "bad-value" in capsys.readouterr().err

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
        for command in ("delta", "big-delta", "dissect", "bounds", "show"):
            assert main([command, "--file", str(path)]) == 3, command
        assert capsys.readouterr().err.count("error [bad-file]") == 5

    def test_missing_source_is_domain_error(self, capsys):
        assert main(["delta"]) == 2
