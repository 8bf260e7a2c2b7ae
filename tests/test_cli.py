import json

import pytest

from plumbtoric import moment_polygon
from plumbtoric.cli import main
from plumbtoric.docio import polygon_from_doc, polygon_to_doc, render_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_tight_example(self, capsys):
        code, out, _ = run(capsys, "classify", "--plumbing", "-2,1,0,-2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "tight"
        assert doc["lens"] == {"k": 1, "l": 0}
        assert doc["torsion"]["at_simp"] == "infinity"

    def test_minus_one_without_reduce_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", "--plumbing", "2,-1,2")
        assert code == 2
        record = json.loads(err)
        assert record["error"]["type"] == "MinusOnePresent"

    def test_reduce_flag(self, capsys):
        code, out, _ = run(capsys, "classify", "--plumbing", "2,-1,2", "--reduce")
        assert code == 0
        doc = json.loads(out)
        assert doc["chain"] == [3, 3] and doc["verdict"] == "overtwisted"

    def test_malformed_chain_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--plumbing", "2,x")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"


class TestConstructCommand:
    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "construct", "--plumbing", "-2,1,0,-2", "--heights", "-1,-3,-3,-1"
        )
        assert code == 0
        parsed = polygon_from_doc(json.loads(out))
        assert parsed == moment_polygon((-2, 1, 0, -2), 2, (-1, -3, -3, -1))

    def test_svg_structure(self, capsys):
        code, out, _ = run(capsys, "construct", "--plumbing", "-2,1,0,-2", "--format", "svg")
        assert code == 0
        assert out.count('class="edge"') == 4
        assert out.count('class="edge-label"') == 4
        assert out.count('class="ray') == 2
        assert out.count('class="origin"') == 1
        assert out.count('class="boundary"') == 1

    def test_small_svg(self, capsys):
        code, out, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        assert code == 0
        assert out.count('class="edge"') == 2

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        _, second, _ = run(capsys, "construct", "--plumbing", "2,3", "--format", "svg")
        assert first == second


class TestSurveyCommand:
    def test_contains_expected_row(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "4", "--range", "-2..1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# plumbtoric-survey v1"
        assert lines[1] == "s,verdict,k,l,vs_pi,vs_2pi,det,det_check"
        row = next(line for line in lines if line.startswith('"-2,1,0,-1"'))
        assert ",overtwisted," in row

    def test_rows_sorted_and_deterministic(self, capsys):
        _, serial, _ = run(capsys, "survey", "--n", "2..3", "--range", "-2..1")
        _, parallel, _ = run(
            capsys, "survey", "--n", "2..3", "--range", "-2..1", "--jobs", "2"
        )
        assert serial == parallel
        keys = [
            tuple(int(v) for v in line.split('"')[1].split(","))
            for line in serial.splitlines()[2:]
        ]
        assert keys == sorted(keys)

    def test_cap_respected(self, capsys, monkeypatch):
        monkeypatch.setenv("PLUMBTORIC_MAX_SURVEY", "10")
        code, _, err = run(capsys, "survey", "--n", "4", "--range", "-3..3")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "SurveyTooLarge"

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
    def test_bad_cap_exits_2(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PLUMBTORIC_MAX_SURVEY", value)
        code, _, err = run(capsys, "survey", "--n", "2", "--range", "0..1")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_exclude_minus_one(self, capsys):
        code, out, _ = run(
            capsys, "survey", "--n", "2", "--range", "-2..1", "--exclude-minus-one"
        )
        assert code == 0
        for line in out.splitlines()[2:]:
            chain = [int(v) for v in line.split('"')[1].split(",")]
            assert -1 not in chain


def write_dip(tmp_path):
    doc = {
        "vertices": [["-2", "0"], ["0", "-2"], ["2", "0"]],
        "start_ray": [-1, 0],
        "end_ray": [1, 0],
    }
    path = tmp_path / "itinerary.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestReebOrbitsCommand:
    def test_listing(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "5"
        )
        assert code == 0
        listing = json.loads(out)
        slopes = {tuple(f["slope"]) for f in listing["families"]}
        assert slopes == {(0, -1), (1, -2), (-1, -2)}
        assert len(listing["orbits"]) == 6  # one elliptic + one hyperbolic per family
        assert [] in listing["generators"]  # the empty current

    def test_exact_bound_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "2"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ActionBoundHit"

    def test_generator_cap(self, capsys, monkeypatch, tmp_path):
        path = write_dip(tmp_path)
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "2000")
        # 315,247 generators lie below 91/3; the search stops at the cap
        code, _, err = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "91/3")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "TooManyGenerators"
        assert "PLUMBTORIC_MAX_GENERATORS" in error["message"]
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", "175")  # exactly the count
        code, out, _ = run(capsys, "reeb-orbits", "--itinerary", path, "--action-bound", "31/3")
        assert code == 0
        assert len(json.loads(out)["generators"]) == 175

    @pytest.mark.parametrize("value", ["abc", "-5", "1e5"])
    def test_bad_generator_cap_exits_2(self, capsys, monkeypatch, tmp_path, value):
        monkeypatch.setenv("PLUMBTORIC_MAX_GENERATORS", value)
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", write_dip(tmp_path), "--action-bound", "5"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"

    def test_malformed_document_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run(
            capsys, "reeb-orbits", "--itinerary", str(path), "--action-bound", "5"
        )
        assert code == 2
        assert json.loads(err)["error"]["type"] == "MalformedDocument"


class TestIndexCommand:
    def test_plane_document(self, capsys, tmp_path):
        doc = {
            "c_tau": 1,
            "q_tau": 0,
            "alpha": [{"kind": "positive_hyperbolic", "base_action": "1", "multiplicity": 1}],
            "beta": [],
            "chi": 1,
            "cz_plus": [0],
            "cz_minus": [],
        }
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "index", "--input", str(path))
        assert code == 0
        result = json.loads(out)
        assert result["ech_index"] == 1
        assert result["j_plus"] == 0
        assert result["fredholm_index"] == 1
        assert result["parity_consistent"] is True


class TestPolygonRoundTrip:
    def test_exact_rationals_survive(self):
        poly = moment_polygon((3, -2), 1)
        doc = polygon_to_doc(poly)
        assert polygon_from_doc(json.loads(json.dumps(doc))) == poly

    def test_svg_renders_fractions(self):
        poly = moment_polygon((0, 3), 1)
        from plumbtoric import blow_up_corner
        from fractions import Fraction

        chopped = blow_up_corner(poly, 1, Fraction(1, 2))
        svg = render_svg(chopped)
        assert "a=1/2" in svg
