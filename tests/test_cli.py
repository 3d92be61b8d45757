import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opaque
from opaque import random_convex_polygon
from opaque.cli import main

SQRT3 = math.sqrt(3.0)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]}))
    return str(path)


class TestCompute:
    def test_square_a2(self, capsys, square_file):
        code, out, _ = run(capsys, "compute", "--method", "a2",
                           "--input", square_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["length"] == pytest.approx(3.0)
        assert doc["method"] == "a2"
        assert doc["lower_bound"] == pytest.approx(2.0)
        assert doc["kind"] == "single-arc"

    def test_square_interior_tree(self, capsys, square_file):
        code, out, _ = run(capsys, "compute", "--method", "interior-tree",
                           "--input", square_file)
        assert code == 0
        assert json.loads(out)["length"] == pytest.approx(1 + SQRT3, abs=1e-6)

    def test_pentagon_a3(self, capsys, tmp_path):
        code, out, _ = run(capsys, "fixture", "--name", "pentagon-fig6")
        assert code == 0
        poly_file = tmp_path / "pent.json"
        poly_file.write_text(out)
        code, out, _ = run(capsys, "compute", "--method", "a3",
                           "--input", str(poly_file))
        assert code == 0
        assert json.loads(out)["length"] == pytest.approx(3.3364, abs=5e-3)

    def test_unknown_method(self, capsys, square_file):
        code, _, err = run(capsys, "compute", "--method", "a9",
                           "--input", square_file)
        assert code == 3
        assert "unknown method" in err

    def test_invalid_polygon(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        # collinear vertices, and a document that is not an object
        for doc in ({"vertices": [[0, 0], [1, 0], [2, 0]]}, [1, 2]):
            bad.write_text(json.dumps(doc))
            code, _, err = run(capsys, "compute", "--method", "a1",
                               "--input", str(bad))
            assert code == 2
            assert err.startswith("invalid polygon") and err.count("\n") == 1

    def test_pentagram_rejected(self, capsys, tmp_path):
        # every turn is left, but the boundary winds around twice; a1 on it
        # once returned a ratio below the half-perimeter bound
        bad = tmp_path / "star.json"
        bad.write_text(json.dumps({"vertices": [
            [math.cos(4 * math.pi * k / 5), math.sin(4 * math.pi * k / 5)] for k in range(5)]}))
        for method in ("a1", "a3"):
            code, out, err = run(capsys, "compute", "--method", method, "--input", str(bad))
            assert code == 2 and out == ""
            assert err.startswith("invalid polygon") and "winds around more than once" in err

    def test_clockwise_rejected_then_auto_orient(self, capsys, tmp_path):
        cw = tmp_path / "cw.json"
        cw.write_text(json.dumps(
            {"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}))
        code, _, err = run(capsys, "compute", "--method", "a1",
                           "--input", str(cw))
        assert code == 2
        code, out, _ = run(capsys, "compute", "--method", "a1",
                           "--input", str(cw), "--auto-orient")
        assert code == 0
        assert json.loads(out)["length"] == pytest.approx(3.0)

    def test_auto_orient_far_translated(self, capsys, tmp_path):
        # clockwise hulls 1e9 diameters from the origin: the orientation
        # test takes the shoelace sum about the first vertex, not on raw
        # coordinates, where its sign is rounding noise
        rng = np.random.default_rng(2024)
        for _ in range(20):
            poly = random_convex_polygon(int(rng.integers(3, 30)), rng)
            cw = tmp_path / "cw.json"
            cw.write_text(json.dumps(
                {"vertices": (poly.coords + 1e9 * poly.diameter)[::-1].tolist()}))
            code, _, err = run(capsys, "compute", "--method", "a1",
                               "--input", str(cw), "--auto-orient")
            assert code == 0, err

    def test_auto_orient_overflowing_span(self, capsys, tmp_path):
        # validation runs before any orientation test, so the span bound
        # rejects these coordinates before a shoelace product overflows;
        # warnings are errors here
        big = tmp_path / "big.json"
        big.write_text(json.dumps({"vertices": [[0, 0], [1e308, 0], [1e308, 1e308], [0, 1e308]]}))
        code, out, err = run(capsys, "compute", "--method", "a1", "--input", str(big),
                             "--auto-orient")
        assert code == 2 and out == ""
        assert err.startswith("invalid polygon") and "above 1e+150" in err

    def test_svg_written(self, capsys, square_file, tmp_path):
        svg = tmp_path / "out.svg"
        code, _, _ = run(capsys, "compute", "--method", "a4",
                         "--input", square_file, "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<?xml")
        assert "<polygon" in text and "<polyline" in text
        assert "</svg>" in text


class TestVerify:
    def test_compute_output_verifies(self, capsys, square_file, tmp_path):
        for method in ("a1", "a2", "a3", "a4", "interior-arc", "interior-tree"):
            code, out, _ = run(capsys, "compute", "--method", method,
                               "--input", square_file)
            assert code == 0
            bfile = tmp_path / f"{method}.json"
            bfile.write_text(out)
            code, out, _ = run(capsys, "verify", "--polygon", square_file,
                               "--barrier", str(bfile))
            assert code == 0, method
            assert "opaque: yes" in out

    def test_opaque_messages(self, capsys, square_file, tmp_path):
        # one component holding the square: the hull certificate; the
        # square's boundary ring plus a far segment, whose hulls do not
        # touch: the scan
        docs = {"hull certificate; min slack 0)": [[[0, 0], [1, 0], [1, 1], [0, 1]]],
                "directions tested)": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
                                       [[5, 5], [6, 5]]]}
        for message, polylines in docs.items():
            bfile = tmp_path / "b.json"
            bfile.write_text(json.dumps({"polylines": polylines, "kind": "arbitrary"}))
            code, out, _ = run(capsys, "verify", "--polygon", square_file,
                               "--barrier", str(bfile))
            assert code == 0
            assert out.startswith("opaque: yes (") and out.rstrip().endswith(message)

    def test_not_opaque_exit_1(self, capsys, square_file, tmp_path):
        bfile = tmp_path / "twosides.json"
        bfile.write_text(json.dumps({
            "polylines": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]],
            "kind": "arbitrary"}))
        svg = tmp_path / "w.svg"
        code, out, _ = run(capsys, "verify", "--polygon", square_file,
                           "--barrier", str(bfile), "--svg", str(svg))
        assert code == 1
        assert "opaque: no" in out and "witness" in out
        # the witness direction is the vertical line family
        theta = float(out.split("theta=")[1].split(",")[0])
        assert theta == pytest.approx(math.pi / 2, abs=1e-6)
        assert "<line" in svg.read_text()

    def test_not_opaque_messages(self, capsys, square_file, tmp_path):
        # the bottom side alone: the square's top vertices lie 1 outside its
        # hull, so the support gap decides; the left and right sides: their
        # hull is the square, their hulls do not touch, so the scan decides
        docs = {"(hull gap 1; witness": [[[0, 0], [1, 0]]],
                " directions tested; witness": [[[0, 0], [0, 1]], [[1, 0], [1, 1]]]}
        for message, polylines in docs.items():
            bfile = tmp_path / "b.json"
            bfile.write_text(json.dumps({"polylines": polylines, "kind": "arbitrary"}))
            code, out, _ = run(capsys, "verify", "--polygon", square_file,
                               "--barrier", str(bfile))
            assert code == 1
            assert out.startswith("opaque: no (") and message in out

    def test_malformed_exit_2(self, capsys, square_file, tmp_path):
        bfile = tmp_path / "bad.json"
        # no polylines, polylines that are not a list, and a polygon
        # document that is not an object
        for polygon, barrier in ((square_file, {"polylines": [], "kind": "arbitrary"}),
                                 (square_file, {"polylines": 5}),
                                 (str(bfile), [1, 2])):
            bfile.write_text(json.dumps(barrier))
            code, _, err = run(capsys, "verify", "--polygon", polygon,
                               "--barrier", str(bfile))
            assert code == 2
            assert err.startswith("malformed") and err.count("\n") == 1
        # points that are not (x, y) pairs, and a one-point polyline
        for polyline in ([[0, 0, 0], [1, 1, 1]], [[0], [1]], [[0, 0], [1]], [[0, 0]]):
            bfile.write_text(json.dumps({"polylines": [polyline], "kind": "arbitrary"}))
            code, _, err = run(capsys, "verify", "--polygon", square_file,
                               "--barrier", str(bfile))
            assert code == 2
            assert err.startswith("malformed") and err.count("\n") == 1
        code, _, err = run(capsys, "fixture", "--name", "regular-ngon", "--param", "n=1e3")
        assert code == 2
        assert err.startswith("bad parameter") and err.count("\n") == 1

    def test_roundtrip_bit_for_bit(self, capsys, tmp_path):
        # write, read, write again: identical bytes
        code, out, _ = run(capsys, "fixture", "--name", "regular-ngon",
                           "--param", "n=7")
        pfile = tmp_path / "p.json"
        pfile.write_text(out)
        code, out1, _ = run(capsys, "compute", "--method", "a3",
                            "--input", str(pfile))
        assert code == 0
        bfile = tmp_path / "b.json"
        bfile.write_text(out1)
        doc = json.loads(out1)
        from opaque.cli import _json_value
        assert _json_value(doc) + "\n" == out1


class TestBench:
    def test_deterministic(self, capsys):
        code, out1, _ = run(capsys, "bench", "--family", "random-hull",
                            "--sizes", "6..10", "--seed", "3")
        assert code == 0
        code, out2, _ = run(capsys, "bench", "--family", "random-hull",
                            "--sizes", "6..10", "--seed", "3")
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0].split("\t") == [
            "instance", "method", "length", "half_perimeter", "ratio"]
        assert len(lines) == 1 + 5 * 4  # 5 sizes x 4 methods

    def test_thin_family_ratio(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "thin",
                           "--sizes", "100..100", "--seed", "0")
        assert code == 0
        row = [l for l in out.strip().split("\n")[1:]
               if l.split("\t")[1] == "a1"][0]
        assert float(row.split("\t")[4]) <= 1 + 2 * 1 / 202 + 1e-9

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "bench", "--family", "torus",
                           "--sizes", "1..2")
        assert code == 3
        assert "unknown family" in err


@pytest.mark.parametrize("argv", [
    ("fixture", "--name", "reuleaux-poly", "--param", "shave=3.0"),
    ("bench", "--family", "ngon", "--sizes", "0..3"),
    ("bench", "--family", "reuleaux", "--sizes", "0..1"),
    ("bench", "--family", "random-hull", "--sizes", "0..1"),
    ("bench", "--family", "random-hull", "--sizes", "1..3"),
], ids=["shave", "ngon-0", "reuleaux-0", "random-hull-0", "random-hull-1"])
def test_bad_parameter_exit_2(capsys, argv):
    # malformed input, not "verify found a gap" (exit 1): one line, no
    # traceback, and no row of the bench table
    code, out, err = run(capsys, *argv)
    assert code == 2 and out.count("\n") <= 1
    assert err.count("\n") == 1 and "Traceback" not in err


class TestFixtureCommand:
    def test_polygon_emit(self, capsys):
        code, out, _ = run(capsys, "fixture", "--name", "unit-square")
        assert code == 0
        assert json.loads(out)["vertices"] == [[0, 0], [1, 0], [1, 1], [0, 1]]

    def test_barriers_emit(self, capsys):
        code, out, _ = run(capsys, "fixture", "--name", "unit-square",
                           "--emit", "barriers")
        assert code == 0
        doc = json.loads(out)
        assert doc["half_perimeter"] == 2
        assert len(doc["barriers"]) == 4
        assert doc["barriers"][0]["length"] == 3

    def test_unknown_fixture(self, capsys):
        code, _, err = run(capsys, "fixture", "--name", "moebius")
        assert code == 3
        assert "unknown fixture" in err

    def test_unknown_parameter(self, capsys):
        code, out, err = run(capsys, "fixture", "--name", "regular-ngon", "--param", "bogus=3")
        assert code == 2 and out == ""
        assert err.startswith("bad parameter") and "bogus" in err and err.count("\n") == 1

    def test_non_integer_count(self, capsys):
        code, out, err = run(capsys, "fixture", "--name", "reuleaux-poly", "--param", "m=1.5")
        assert code == 2 and out == ""
        assert err.startswith("bad parameter") and "m must be a positive integer" in err


def per_point(barrier):
    """The polylines as [x, y] lists read from each Point2's x and y."""
    return [[[p.x, p.y] for p in pl] for pl in barrier.polylines]


def test_barrier_json_matches_per_point_form(capsys):
    # the documents slice one tolist of the point array by polyline; the
    # JSON must be byte for byte the one read point by point
    from opaque.cli import METHODS, _json_value, barrier_document
    poly = random_convex_polygon(11, np.random.default_rng(4))
    for name, fn in sorted(METHODS.items()):
        sol = fn(poly)
        doc = barrier_document(sol)
        assert _json_value(doc) == _json_value(dict(doc, polylines=per_point(sol.barrier))), name
    signed = opaque.Barrier((((-0.0, 1.0), (0.5, -0.0)), ((0.5, 2.0), (1.0, 2.0), (1.0, 3.0))),
                            "arbitrary")
    sol = opaque.BarrierSolution(signed, signed.length, 1.0, "a1", signed.length)
    assert '[[-0, 1], [0.5, -0]]' in _json_value(barrier_document(sol))
    assert barrier_document(sol)["polylines"] == per_point(signed)

    code, out, _ = run(capsys, "fixture", "--name", "unit-square", "--emit", "barriers")
    assert code == 0
    fix = opaque.make_fixture("unit-square")
    want = {"name": fix.name,
            "half_perimeter": opaque.half_perimeter_lower_bound(fix.polygon),
            "barriers": [{"label": label, "polylines": per_point(b), "kind": b.kind,
                          "length": length} for b, length, label in fix.known_barriers],
            "constants": fix.known_constants}
    assert out == _json_value(want) + "\n"


def test_import_loads_no_scipy():
    # every CLI call pays the package import, and scipy's took about 0.5 s
    src = str(Path(opaque.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, opaque, opaque.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"
