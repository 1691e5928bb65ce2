"""End-to-end tests for the command-line front end: exit codes, pinned
outputs, JSON schema conformance, and byte-level determinism."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edcurve import cli
from edcurve.cli import build_parser, derive_seed, main
from edcurve.eddeg import DataPoint, triangulate
from edcurve.scene import apply_camera, arrangement_from_dict, curve_from_dict

DATA = Path(__file__).parent / "data"
SCHEMAS = Path(__file__).parent.parent / "src" / "edcurve" / "schemas"
ROOT = Path(__file__).parent.parent
# child interpreters import the checkout's sources, as pytest itself does
CHILD_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
PYPROJECT = ROOT / "pyproject.toml"

TW = str(DATA / "twisted_cubic.json")
ONE = str(DATA / "one_generic.json")
TWO = str(DATA / "two_generic.json")
PAIR = str(DATA / "explicit_pair.json")
WEDGE_BASE = str(DATA / "pinned_wedge_base.json")
CONIC = str(DATA / "conic.json")
PARABOLA_CAM = str(DATA / "parabola_cam.json")
DEGENERATE_DATA = str(DATA / "degenerate_data.json")
DATA1 = str(DATA / "data1.json")
BEZ1 = str(DATA / "bez1.json")
BEZ2 = str(DATA / "bez2.json")
MALFORMED = str(DATA / "malformed.json")


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> dict:
    code, out, err = run_cli(capsys, *argv, "--json")
    assert code == 0, err
    envelope = json.loads(out)
    schema = json.loads((SCHEMAS / "output.schema.json").read_text())
    jsonschema.validate(envelope, schema)
    return envelope


class TestSeedDerivation:
    def test_deterministic_and_label_sensitive(self):
        assert derive_seed(0, "a") == derive_seed(0, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")


class TestEddeg:
    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "eddeg", "--curve", TW, "--cameras", ONE,
                               "--seed", "1")
        assert code == 0
        assert "ed_degree            = 7" in out
        assert "(match)" in out

    def test_json_report_validates(self, capsys):
        env = run_json(capsys, "eddeg", "--curve", TW, "--cameras", ONE,
                       "--seed", "1")
        assert env["command"] == "eddeg"
        assert env["results"]["ed_degree"] == 7
        assert env["results"]["certificate"]["passes"] is True
        assert env["results"]["cross_check"] == 7

    def test_byte_identical_repeats(self, capsys):
        args = ("eddeg", "--curve", TW, "--cameras", TWO, "--seed", "3", "--json")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_explicit_generic_data(self, capsys):
        code, out, _ = run_cli(capsys, "eddeg", "--curve", TW, "--cameras", ONE,
                               "--data", DATA1)
        assert code == 0
        assert "ed_degree            = 7" in out

    def test_dimension_mismatch_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eddeg", "--curve", TW,
                               "--cameras", PARABOLA_CAM)
        assert code == 1
        assert "ambient dimension" in err

    def test_malformed_curve_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eddeg", "--curve", MALFORMED,
                               "--cameras", ONE)
        assert code == 1
        assert "malformed.json" in err

    def test_missing_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "eddeg", "--curve", "no_such_file.json",
                               "--cameras", ONE)
        assert code == 1
        assert "no_such_file.json" in err

    def test_degenerate_data_exhausts_retries(self, capsys):
        # the pinned data point sits on the parabola's axis: every retry pairs
        # it with a fresh generic sample, counts disagree, budget runs out
        code, _, err = run_cli(capsys, "eddeg", "--curve", CONIC,
                               "--cameras", PARABOLA_CAM,
                               "--data", DEGENERATE_DATA, "--retries", "3")
        assert code == 2
        assert err.startswith("edcurve: error: no attempt accepted (")
        for k in range(3):
            assert f"attempt {k}: data not generic; reseed" in err

    def test_point_image_exits_one_without_traceback(self, capsys, tmp_path):
        # the line through the camera centre [0:0:0:1] images to the point [1:0:0]
        curve = tmp_path / "line.json"
        curve.write_text(json.dumps({"N": 3, "degree": 1, "coords": [
            ["0", "1"], ["0", "0"], ["0", "0"], ["1", "0"]]}))
        cams = tmp_path / "cams.json"
        cams.write_text(json.dumps({"cameras": [{"h": 2, "N": 3, "rows": [
            ["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"]]}]}))
        for cmd in ("eddeg", "triangulate"):
            code, out, err = run_cli(capsys, cmd, "--curve", str(curve),
                                     "--cameras", str(cams))
            assert code == 1, cmd
            assert out == ""
            assert err.startswith("edcurve: error:")
            assert "is a point" in err and "symmetry locus" not in err

    def test_data_literal_past_the_int_digit_limit(self, capsys, tmp_path):
        data = tmp_path / "far.json"
        data.write_text(json.dumps({"u": [["1" + "0" * 4400, "3"]]}))
        code, out, err = run_cli(capsys, "eddeg", "--curve", TW, "--cameras", ONE,
                                 "--data", str(data))
        assert (code, err) == (0, "")
        assert "ed_degree            = 7" in out

    def test_explicit_pair_cross_check_agrees(self, capsys):
        env = run_json(capsys, "eddeg", "--curve", TW, "--cameras", PAIR,
                       "--seed", "2")
        assert env["results"]["cross_check"] == env["results"]["ed_degree"]

    def test_count_and_cross_check_share_one_scene(self, capsys, monkeypatch):
        calls = []

        def spy_apply(*args):
            calls.append(args[0])
            return apply_camera(*args)

        monkeypatch.setattr("edcurve.scene.apply_camera", spy_apply)
        env = run_json(capsys, "eddeg", "--curve", TW, "--cameras", PAIR,
                       "--seed", "2")
        assert env["results"]["cross_check"] == env["results"]["ed_degree"]
        # each of the two cameras is applied once, for count and cross-check alike
        assert len(calls) == 2


class TestSweep:
    def test_small_grid(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--e", "1..2", "--n", "1..2",
                               "--h", "2")
        assert code == 0
        assert "certified cells all match: True" in out

    def test_small_grid_json(self, capsys):
        env = run_json(capsys, "sweep", "--e", "1..2", "--n", "1..2", "--h", "2")
        cells = env["results"]["cells"]
        assert len(cells) == 4  # generic-coefficient variant only below e=3
        assert env["results"]["all_certified_match"] is True
        for cell in cells:
            assert cell["status"] == "ok"
            assert cell["ed_degree"] == 3 * cell["e"] * cell["n"] - 2
            assert cell["cross_check"] == cell["ed_degree"]

    def test_monomial_variant_appears_from_degree_three(self, capsys):
        env = run_json(capsys, "sweep", "--e", "3..3", "--n", "1..1", "--h", "2")
        variants = {c["variant"] for c in env["results"]["cells"]}
        assert variants == {"generic", "monomial"}

    def test_empty_range_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--e", "3..2")
        assert code == 1
        assert "empty" in err

    def test_tangent_centre_cell_is_not_certified(self, capsys):
        # the monomial cell's camera centre lies on a tangent line of the
        # twisted cubic: its view has a cusp at t = infinity and counts 6
        env = run_json(capsys, "sweep", "--e", "3", "--n", "1", "--h", "2",
                       "--seed", "1349692743621760768")
        cells = {c["variant"]: c for c in env["results"]["cells"]}
        assert cells["monomial"]["status"] == "certificate-failed"
        assert cells["monomial"]["ed_degree"] == 6
        assert cells["generic"]["status"] == "ok"
        assert env["results"]["all_certified_match"] is True

    def test_h_below_two_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--h", "1")
        assert code == 1
        assert ">= 2" in err


class TestL3:
    def test_both_heights(self, capsys):
        env = run_json(capsys, "l3", "--h", "2,3", "--n", "1..2")
        rows = env["results"]["rows"]
        assert env["results"]["all_match"] is True
        got = {(r["h"], r["n"]): r["ed_degree"] for r in rows}
        assert got == {(2, 1): 4, (2, 2): 10, (3, 1): 4, (3, 2): 10}
        for r in rows:
            assert r["formula_value"] == 6 * r["n"] - 2

    def test_class_shorthand(self, capsys):
        env = run_json(capsys, "l3", "--h", "2", "--n", "2..2")
        row = env["results"]["rows"][0]
        assert row["curve_class_shorthand"] == "2*T1 + 2*T2"
        assert row["ambient"] == "(P^2)^2"

    def test_certificate_rejection_keeps_its_reasons(self, capsys):
        # seed 24 draws a wedge camera whose certificate fails on attempt 0
        code, out, err = run_cli(capsys, "l3", "--h", "2", "--n", "1",
                                 "--seed", "24", "--retries", "1")
        assert (code, out) == (2, "")
        assert err == ("edcurve: error: l3:h2:n1: no attempt accepted (attempt 0: "
                       "certificate failed: chart polynomial of camera 0 shares a "
                       "zero with its view's sum of squares; parameterization is "
                       "not an immersion (cusp present))\n")
        env = run_json(capsys, "l3", "--h", "2", "--n", "1", "--seed", "24")
        assert env["results"]["rows"][0]["ed_degree"] == 4

    def test_unsupported_height_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "l3", "--h", "4")
        assert code == 1
        assert "2 and 3" in err


class TestTriangulate:
    def test_text_preview(self, capsys):
        code, out, _ = run_cli(capsys, "triangulate", "--curve", TW,
                               "--cameras", ONE, "--data", DATA1,
                               "--tol", "1/4096")
        assert code == 0
        assert "real critical points:" in out
        assert "argmin" in out
        assert "(exact rationals available with --json)" in out

    def test_json_exact_values(self, capsys):
        env = run_json(capsys, "triangulate", "--curve", TW, "--cameras", ONE,
                       "--data", DATA1, "--tol", "1/4096")
        res = env["results"]
        assert res["no_finite_minimizer"] is False
        assert isinstance(res["distances"][0], str)
        assert res["argmin_index"] is not None

    @staticmethod
    def _far_data(tmp_path) -> str:
        # 10^155 is far from the image: dist^2 ~ 10^310 overflows a float, the
        # nearest interval is narrower than the smallest float, and exact
        # values run past the default int-to-str digit limit
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"u": [["1" + "0" * 155, "3"]]}))
        return str(path)

    def test_text_preview_of_values_outside_float_range(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "triangulate", "--curve", TW,
                                 "--cameras", ONE, "--data", self._far_data(tmp_path))
        assert code == 0, err
        assert err == ""
        assert "(width <= 1.05e-464)  dist^2 ~= 6.59003787936e+309" in out
        assert "certified minimum lower bound ~= 6.59003787936e+309" in out

    def test_json_carries_values_outside_float_range_exactly(self, capsys, tmp_path):
        data = self._far_data(tmp_path)
        env = run_json(capsys, "triangulate", "--curve", TW, "--cameras", ONE,
                       "--data", data)
        expected = triangulate(
            curve_from_dict(json.loads(Path(TW).read_text())),
            arrangement_from_dict(json.loads(Path(ONE).read_text())),
            DataPoint.from_dict(json.loads(Path(data).read_text())),
            Fraction(1, 10**9),
        ).to_json_dict()
        assert env["results"] == expected
        assert max(len(d) for d in env["results"]["distances"]) > 4300

    def test_invalid_tolerance_exits_one(self, capsys):
        for bad in ("--tol=0", "--tol=-1/2", "--tol=abc"):
            code, _, err = run_cli(capsys, "triangulate", "--curve", TW,
                                   "--cameras", ONE, bad)
            assert code == 1, bad

    def test_wrong_shape_data_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "triangulate", "--curve", TW,
                               "--cameras", TWO, "--data", DATA1)
        assert code == 1


class TestWedge:
    PINNED = [
        ["-1", "0", "0", "3", "4", "0"],
        ["0", "5", "0", "10", "0", "-20"],
        ["0", "0", "0", "-5", "0", "0"],
    ]

    def test_pinned_minor_matrix(self, capsys):
        env = run_json(capsys, "wedge", "--cameras", WEDGE_BASE, "--k", "2")
        assert env["results"]["display"] == self.PINNED
        assert (env["results"]["rows"], env["results"]["cols"]) == (3, 6)

    def test_text_contains_rows(self, capsys):
        code, out, _ = run_cli(capsys, "wedge", "--cameras", WEDGE_BASE, "--k", "2")
        assert code == 0
        assert "3 x 6 minor matrix" in out
        body_rows = [line.split("[", 1)[1].rstrip(" ]").split()
                     for line in out.splitlines() if line.strip().startswith("[")]
        assert body_rows == self.PINNED

    def test_out_of_range_k_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "wedge", "--cameras", WEDGE_BASE, "--k", "5")
        assert code == 1
        assert "wedge order" in err

    def test_multi_camera_file_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "wedge", "--cameras", TWO, "--k", "2")
        assert code == 1
        assert "exactly one camera" in err


class TestMultidegree:
    def test_headline_product(self, capsys):
        env = run_json(capsys, "multidegree", "1,1", "1,2", "1,3")
        assert env["results"]["product"] == "T1^3 + 6*T1^2*T2 + 11*T1*T2^2 + 6*T2^3"

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "multidegree", "1,1", "1,2", "1,3")
        assert code == 0
        assert "product  = T1^3 + 6*T1^2*T2 + 11*T1*T2^2 + 6*T2^3" in out

    def test_truncation_via_h(self, capsys):
        env = run_json(capsys, "multidegree", "--h", "1", "1,0", "1,0")
        assert env["results"]["product"] == "0"

    def test_input_validation(self, capsys):
        for args in ((), ("1,x",), ("1,1", "1"), ("1,1", "--h", "0")):
            code, _, err = run_cli(capsys, "multidegree", *args)
            assert code == 1, args


class TestScroll:
    def test_degree_one_pair(self, capsys):
        env = run_json(capsys, "scroll", "--bezier1", BEZ1, "--bezier2", BEZ2,
                       "--n", "1..2")
        res = env["results"]
        assert res["scroll_degree"] == 2
        assert res["expected_degree"] == 2
        assert res["all_match"] is True
        assert [r["ed_degree"] for r in res["rows"]] == [4, 10]

    def test_identical_curves_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "scroll", "--bezier1", BEZ1,
                               "--bezier2", BEZ1)
        assert code == 1
        assert "non-generic control points" in err

    def test_two_to_one_view_is_redrawn(self, capsys):
        # this seed first draws a camera that maps the scroll's plane conic
        # 2:1 onto a line; the view ramifies, so the certificate refuses it
        # (counted, it gave 3)
        env = run_json(capsys, "scroll", "--bezier1", BEZ1, "--bezier2", BEZ2,
                       "--n", "1", "--seed", "14653090059713265492")
        row = env["results"]["rows"][0]
        assert (row["ed_degree"], row["formula_value"], row["match"]) == (4, 4, True)
        assert env["results"]["all_match"] is True


# stdout SHA-256 of each invocation, recorded while polynomials still stored
# Fraction coefficients; run from the repository root, since the JSON
# envelopes echo the file arguments
GOLDEN_DATA = "tests/data/"
GOLDEN = [
    (("eddeg", "--curve", GOLDEN_DATA + "twisted_cubic.json", "--cameras",
      GOLDEN_DATA + "two_generic.json", "--seed", "3"),
     "f5a3e79771d3ec13f0795260e2c1d0d5fde4368f9fe71c1f81287158ce518eb8"),
    (("eddeg", "--curve", GOLDEN_DATA + "twisted_cubic.json", "--cameras",
      GOLDEN_DATA + "explicit_pair.json", "--json"),
     "3ff6c276fcc1fba8048c95d1eec5f624c00bac5a42b64f7acff0fc424aec02da"),
    (("eddeg", "--curve", GOLDEN_DATA + "conic.json", "--cameras",
      GOLDEN_DATA + "parabola_cam.json", "--seed", "11"),
     "330b9ebd8d6873c883d5ad7aeb62097e6c65ae06ed9467f826bea13f5dd084eb"),
    (("eddeg", "--curve", GOLDEN_DATA + "twisted_cubic.json", "--cameras",
      GOLDEN_DATA + "one_generic.json", "--seed", "8", "--json"),
     "29482232127c8dc6e3d11a9eb5b42122a7594446cd5f2072bcd804b5f7ff98c0"),
    (("sweep", "--e", "1..3", "--n", "1..3", "--seed", "5"),
     "c7b8bb874e4536ea2a3ae824bea18283280043f0d5b13c3ed40ecdc9692a3808"),
    (("sweep", "--e", "1..3", "--n", "1..3", "--seed", "5", "--json"),
     "7e11dccc898373024bfa987aacf2cc9ab4fb9e2d421d2073510631bbdd251350"),
    (("l3", "--n", "1..2", "--seed", "2"),
     "e7e49d68e8b53354da900d27ccbdc0d65fe2e0309da58af9320753f9889e4c63"),
    (("l3", "--n", "1..2", "--seed", "2", "--json"),
     "d72de2131063685fc9e15e9f0014135dc68f96e0785ebae490b78b734f0b7685"),
    (("scroll", "--bezier1", GOLDEN_DATA + "bez1.json", "--bezier2",
      GOLDEN_DATA + "bez2.json", "--n", "1..2", "--seed", "4"),
     "7474c1f1e525201853f5c12ea06d2b2492e28612a6ada0f90280b202ecc60143"),
    (("scroll", "--bezier1", GOLDEN_DATA + "bez1.json", "--bezier2",
      GOLDEN_DATA + "bez2.json", "--n", "1..3", "--seed", "4", "--json"),
     "bcad72c30d51ce17632ccd826fb5bebf818ed7e0614da964d525733a4469e582"),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv,digest", GOLDEN, ids=[
        f"{argv[0]}-{k}" for k, (argv, _) in enumerate(GOLDEN)])
    def test_stdout_bytes(self, capsys, monkeypatch, argv, digest):
        monkeypatch.chdir(ROOT)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestParserBehavior:
    def test_unknown_subcommand_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["eddeg", "--curve", TW])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("eddeg", "--curve", TW, "--cameras", ONE),
        ("sweep", "--e", "1", "--n", "1"),
        ("l3", "--n", "1"),
        ("scroll", "--bezier1", BEZ1, "--bezier2", BEZ2, "--n", "1"),
    ])
    @pytest.mark.parametrize("retries", ["0", "-3"])
    def test_nonpositive_retries_is_a_usage_error(self, capsys, argv, retries):
        code, out, err = run_cli(capsys, *argv, "--retries", retries, "--json")
        assert code == 1
        assert out == ""
        assert err.startswith("edcurve: error: --retries")


class TestParserReuse:
    """main builds its parser on the first call in a process and reuses it."""

    def test_in_process_calls_build_the_parser_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_parser

        def spy():
            built.append(True)
            return real()

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            for n in range(4):
                env = run_json(capsys, "l3", "--h", "2", "--n", str(n + 1),
                               "--seed", str(n))
                assert env["results"]["all_match"]
            assert built == [True]
        finally:
            cli._parser.cache_clear()  # the next test builds its own

    def test_usage_errors_leave_the_golden_outputs_unchanged(self, capsys, monkeypatch):
        monkeypatch.chdir(ROOT)
        for argv, code in [(["eddeg", "--curve", TW], 1),            # missing flag
                           (["wedge", "--cameras", ONE, "--k", "x"], 1),  # bad int
                           (["frobnicate"], 1),
                           (["sweep", "--help"], 0)]:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        capsys.readouterr()
        for argv, digest in GOLDEN:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestConsoleEntryPoints:
    @pytest.mark.skipif(shutil.which("edcurve") is None,
                        reason="edcurve console script not installed "
                               "(pip install -e .)")
    def test_installed_script(self):
        proc = subprocess.run(
            ["edcurve", "multidegree", "1,1", "1,2", "1,3", "--json"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        env = json.loads(proc.stdout)
        assert env["results"]["product"].startswith("T1^3")

    def test_script_declaration_runs_its_target(self):
        """The [project.scripts] entry, run as pip's generated wrapper runs it."""
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"edcurve": "edcurve.cli:main"}
        module, func = scripts["edcurve"].split(":")
        argv = ["edcurve", "multidegree", "1,1", "1,2", "1,3", "--json"]
        code = (f"import sys; from {module} import {func}; "
                f"sys.argv = {argv!r}; sys.exit({func}())")
        proc = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        env = json.loads(proc.stdout)
        assert env["results"]["product"].startswith("T1^3")

    def test_closed_pipe_exits_one_without_traceback(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "edcurve.cli", "sweep", "--e", "1",
                 "--n", "1..2", "--json"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env=CHILD_ENV)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ("edcurve: error: output pipe closed before all "
                               "output was written\n")

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "edcurve.cli", "eddeg", "--curve", TW,
             "--cameras", ONE, "--seed", "1", "--json"],
            capture_output=True, text=True, timeout=120, env=CHILD_ENV)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["ed_degree"] == 7


class TestReproduceExamples:
    def test_gallery_runs_without_mismatch(self):
        # at seeds 1-3 the vanishing-corner pair's first draw has a second
        # degeneracy (a repeated chart zero, or a second shared zero) that
        # the family's factory must redraw for the count 13
        for seed in range(4):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "scripts" / "reproduce_examples.py"),
                 "--seed", str(seed)],
                capture_output=True, text=True, timeout=300, env=CHILD_ENV)
            assert proc.returncode == 0, (seed, proc.stdout + proc.stderr)
            assert "; 0 unexpected mismatch(es)" in proc.stdout


_INT = st.integers(-1, 5)
_ENTRY = st.sampled_from(["0", "0", "1", "-1", "2", "1/2", "-3/4"])
_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-9, 9)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**9, 1e9,
                       "", "x", "1/0", "1e400", "--1", "7"]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(
        st.sampled_from(["N", "degree", "coords", "cameras", "h", "rows", "u"]),
        kids, max_size=4),
    max_leaves=10,
)


# what to break in a drawn scene; most scenes are well-formed, so that the
# count itself meets zero charts, base points, cusps and point images
_FAULTS = ("none",) * 5 + ("dims", "shape", "field", "object")


@st.composite
def _scene_json(draw):
    """(curve, cameras) objects: a degree-e curve in P^N and n cameras of
    height h with small entries.  Well-formed, e, n in 1..5 and
    2 <= h <= N <= 5; or with one fault: e, n, h and N anywhere in
    [-1, 5], a row or a row's length off by one, one field any JSON value,
    or a whole object any JSON value."""
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "dims":
        N, e, h, n = (draw(st.integers(-1, 5)) for _ in range(4))
    else:
        e, h, n = draw(st.integers(1, 5)), draw(st.integers(2, 3)), draw(st.integers(1, 3))
        N = draw(st.integers(h, 5))
    off = st.sampled_from((0, 0, 1, -1)) if fault == "shape" else st.just(0)

    def rows(count, length):
        count, length = count + draw(off), length + draw(off)
        return [[draw(_ENTRY) for _ in range(max(length, 0))] for _ in range(max(count, 0))]

    curve = {"N": N, "degree": e, "coords": rows(N + 1, e + 1)}
    cams = [{"h": h, "N": N, "rows": rows(h + 1, N + 1)} for _ in range(max(n, 0))]
    if fault == "field":
        obj = draw(st.sampled_from([curve, *cams]))
        obj[draw(st.sampled_from(sorted(obj)))] = draw(_JUNK)
    cameras = {"cameras": cams}
    if fault == "object":
        if draw(st.booleans()):
            curve = draw(_JUNK)
        else:
            cameras = draw(_JUNK)
    return curve, cameras


@st.composite
def _range_text(draw, values, empty=False):
    """A or A..B for A drawn from ``values`` and B from A to A + 1, or from
    A - 1 with ``empty``."""
    a = draw(values)
    if draw(st.booleans()):
        return str(a)
    return f"{a}..{draw(st.integers(a - empty, a + 1))}"


def _option(draw, name, value):
    """``--name value`` or ``--name=value``: a value that starts with a dash
    is a usage error in the first form."""
    return [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]


@st.composite
def _grid_argv(draw):
    """sweep or l3 argv.  Most are well-formed: e in 1..4, n in 1..3, h in
    {2, 3}, retries 1 or 2; the others draw e, n, h and retries anywhere in
    [-1, 5] (h from a list of one or two), take a malformed range or list, or
    go over a size cap."""
    if draw(st.integers(0, 2)):
        e, n = _range_text(st.integers(1, 4)), _range_text(st.integers(1, 3))
        h = st.sampled_from(("2", "3", "2,3"))
        retries = st.integers(1, 2)
    else:
        bad = st.sampled_from(("", "x", "1..", "..2", "1...3", ",", "2,,3"))
        over = st.sampled_from((f"1..{10**12}", f"{10**12}", "1..13", "13"))
        e = n = st.one_of(_range_text(_INT, empty=True), bad, over)
        h = st.one_of(st.lists(_INT, min_size=1, max_size=2).map(
            lambda xs: ",".join(map(str, xs))), bad, st.sampled_from(("13", "2," * 9)))
        retries = _INT
    if draw(st.booleans()):
        argv = ["sweep", *_option(draw, "e", draw(e))]
    else:
        argv = ["l3"]
    argv += [*_option(draw, "n", draw(n)), *_option(draw, "h", draw(h)),
             *_option(draw, "retries", str(draw(retries))),
             "--seed", str(draw(st.integers(0, 3)))]
    return argv + (["--json"] if draw(st.booleans()) else [])


def _assert_clean_exit(argv) -> None:
    """main(argv) returns 0, 1 or 2 without raising, and every non-zero exit
    writes an ``edcurve: error:`` line to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # usage errors leave through argparse
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code:
        assert any(line.startswith("edcurve: error:")
                   for line in err.getvalue().splitlines()), (argv, err.getvalue())


class TestCliFuzz:
    """Every input ends in exit 0, 1 or 2 with an ``edcurve: error:`` line on
    failure; an exception escaping ``main`` (a traceback) fails the test."""

    @settings(max_examples=100)
    @given(_grid_argv())
    @example(["sweep", "--e", "0", "--n", "1", "--h", "2"])  # was a ValueError traceback
    @example(["l3", "--n=-1..0", "--h", "2"])
    # a range was listed before any bound was checked: 10^12 entries
    @example(["sweep", "--e", f"1..{10**12}", "--n", "1", "--h", "2"])
    def test_sweep_and_l3_grids(self, argv):
        _assert_clean_exit(argv)

    @settings(max_examples=200)
    @given(_scene_json(), st.sampled_from(("eddeg", "triangulate")),
           st.sampled_from((1, 2, 2, 0, -1)))
    # a non-finite dimension was an OverflowError traceback
    @example(({"N": float("inf"), "degree": 1, "coords": []}, {"cameras": []}), "eddeg", 1)
    @example(({"N": 1, "degree": 1, "coords": [["1", "0"], ["0", "1"]]},
              {"cameras": [{"h": 1, "N": float("-inf"), "rows": []}]}), "triangulate", 1)
    # a huge degree padded each short row with 10**9 zeros (about 8 GB)
    @example(({"N": 1, "degree": 10**9, "coords": [["1"], ["1"]]}, {"cameras": []}), "eddeg", 1)
    def test_eddeg_and_triangulate_on_degenerate_scenes(self, scene, command, retries):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, obj in zip(("curve.json", "cameras.json"), scene):
                path = Path(tmp) / name
                path.write_text(json.dumps(obj))
                paths.append(str(path))
            argv = [command, "--curve", paths[0], "--cameras", paths[1]]
            if command == "eddeg":
                argv += ["--retries", str(retries)]
            _assert_clean_exit(argv)

    def test_usage_errors_of_a_subcommand_carry_the_prefix(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--e"])
        assert exc.value.code == 1
        assert capsys.readouterr().err == (
            "edcurve: error: sweep: argument --e: expected one argument\n")
        # argparse reads a value that starts with a dash and is no number as an option
        _assert_clean_exit(["sweep", "--e", "-1..2"])

    def test_sizes_over_a_cap_are_refused(self, capsys):
        for argv in (["sweep", "--e", f"1..{10**12}"], ["sweep", "--e", str(cli.MAX_E + 1)],
                     ["sweep", "--n", f"2..{cli.MAX_N + 1}"],
                     ["sweep", "--h", f"2,{cli.MAX_H + 1}"],
                     ["sweep", "--h", ",".join(["2"] * (cli.MAX_H_LIST + 1))],
                     ["l3", "--n", str(cli.MAX_N + 1)],
                     ["l3", "--h", ",".join(["2"] * (cli.MAX_H_LIST + 1))],
                     ["scroll", "--bezier1", BEZ1, "--bezier2", BEZ2, "--n", f"1..{10**12}"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "", argv
            assert err.startswith("edcurve: error: ") and "at most" in err, (argv, err)

    def test_ranges_must_start_at_one(self, capsys):
        for argv in (["sweep", "--e", "0..2"], ["sweep", "--n", "0"], ["l3", "--n", "0"],
                     ["scroll", "--bezier1", BEZ1, "--bezier2", BEZ2, "--n", "0"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("edcurve: error: --") and "must be at least 1" in err
