"""Command-line interface: schemas, exit codes, determinism, rendering."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import schurvar.regions
from schurvar.cli import MAX_COUNT, MAX_SAMPLES, main

INTERIOR = {"coefficients": [[0.0, 0.0], [0.0, 0.0]], "domain": "half-plane"}
BOUNDARY = {"coefficients": [[1.0, 0.0], [0.0, 0.0]], "domain": "half-plane"}
EXTERIOR = {"coefficients": [[2.0, 0.0], [0.0, 0.0]], "domain": "half-plane"}


@pytest.fixture
def write_json(tmp_path):
    def _write(payload, name="data.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


# --------------------------------------------------------------------------
# classify


def test_classify_interior(capsys, write_json):
    code, out = run(capsys, ["classify", "--input", write_json(INTERIOR)])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "interior"
    assert payload["gamma"] == [[0.0, 0.0], [0.0, 0.0]]


def test_classify_boundary(capsys, write_json):
    code, out = run(capsys, ["classify", "--input", write_json(BOUNDARY)])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "boundary"
    assert payload["witness_index"] == 0
    assert payload["gamma"] == [[1.0, 0.0]]


def test_classify_exterior_reasons(capsys, write_json):
    code, out = run(capsys, ["classify", "--input", write_json(EXTERIOR)])
    assert code == 0
    payload = json.loads(out)
    assert payload["class"] == "exterior"
    assert payload["witness_index"] == 0
    assert payload["reason"] == "modulus_exceeds_one"

    tail = {"coefficients": [[1.0, 0.0], [0.5, 0.0]]}
    code, out = run(capsys, ["classify", "--input", write_json(tail, "t.json")])
    assert code == 0
    assert json.loads(out)["reason"] == "unimodular_with_nonzero_tail"


def test_classify_writes_output_file(tmp_path, capsys, write_json):
    dest = tmp_path / "out.json"
    code, out = run(
        capsys, ["classify", "--input", write_json(INTERIOR), "--output", str(dest)]
    )
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["class"] == "interior"


# --------------------------------------------------------------------------
# input errors


def test_missing_input_file(capsys, tmp_path):
    code, _ = run(capsys, ["classify", "--input", str(tmp_path / "nope.json")])
    assert code == 2


def test_malformed_json(capsys, tmp_path, write_json):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _ = run(capsys, ["classify", "--input", str(path)])
    assert code == 2
    # booleans and numeric strings are not the schema's numbers; integers are
    for coefficients in ([[True, False]], [["0.5", "1e-1"]]):
        code = main(["classify", "--input", write_json({"coefficients": coefficients})])
        err = capsys.readouterr().err
        assert code == 2, coefficients
        assert err.startswith("invalid input:") and err.count("\n") == 1
    code, out = run(capsys, ["classify", "--input", write_json({"coefficients": [[0, 0]]})])
    assert code == 0
    assert json.loads(out)["gamma"] == [[0.0, 0.0]]


def test_missing_coefficients_key(capsys, write_json):
    code, _ = run(capsys, ["classify", "--input", write_json({"domain": "strip"})])
    assert code == 2


def test_coefficient_too_large_for_a_float(capsys, tmp_path):
    # JSON reads a 400-digit integer exactly; it overflows only as a float
    path = tmp_path / "big.json"
    path.write_text('{"coefficients": [[' + "9" * 400 + ", 0]]}")
    code = main(["classify", "--input", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_bad_z0_values(capsys, write_json):
    path = write_json(INTERIOR)
    for z0 in ("abc", "0", "1.2", "0.5+0.9j", "nan", "inf", "0.1+nanj"):
        code, _ = run(capsys, ["boundary", "--input", path, "--z0", z0])
        assert code == 2, z0


def test_z0_with_negative_real_part(capsys, write_json):
    path = write_json(INTERIOR)
    # as a separate argument argparse takes "-0.3+0.4i" for an option
    with pytest.raises(SystemExit) as exc:
        main(["boundary", "--input", path, "--z0", "-0.3+0.4i", "--samples", "16"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    code, out = run(capsys, ["boundary", "--input", path, "--z0=-0.3+0.4i", "--samples", "16"])
    assert code == 0
    assert len([line for line in out.splitlines() if not line.startswith(("#", "theta"))]) == 16


def test_bad_domain_label(capsys, write_json):
    path = write_json(INTERIOR)
    code, _ = run(
        capsys,
        ["boundary", "--input", path, "--z0", "0.3", "--domain", "banana"],
    )
    assert code == 2
    # a label in the input file that is not a string
    for label in (5, None):
        path = write_json({**INTERIOR, "domain": label})
        for argv in (["classify"], ["boundary", "--z0", "0.3"]):
            code = main([*argv, "--input", path])
            err = capsys.readouterr().err
            assert code == 2, (label, argv)
            assert err.startswith("invalid input:") and err.count("\n") == 1


def test_bad_weight_power(capsys, write_json):
    code, _ = run(
        capsys,
        ["boundary", "--input", write_json(INTERIOR), "--z0", "0.3", "--j", "-2"],
    )
    assert code == 2


def test_argparse_rejects_unknown_flags(write_json):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--input", write_json(INTERIOR), "--frobnicate"])
    assert exc.value.code == 2


# --------------------------------------------------------------------------
# boundary


def boundary_args(path, n="8", extra=()):
    return [
        "boundary",
        "--input",
        path,
        "--z0",
        "0.3",
        "--j",
        "-1",
        "--samples",
        n,
        *extra,
    ]


def parse_curve(out):
    lines = out.strip().splitlines()
    assert lines[0] == "theta,re,im"
    assert lines[-1].startswith("# ")
    rows = [tuple(float(x) for x in ln.split(",")) for ln in lines[1:-1]]
    sidecar = json.loads(lines[-1][2:])
    return rows, sidecar


def test_boundary_csv_schema_and_values(capsys, write_json):
    code, out = run(capsys, boundary_args(write_json(INTERIOR)))
    assert code == 0
    rows, sidecar = parse_curve(out)
    assert len(rows) == 8
    theta0, re0, im0 = rows[0]
    assert theta0 == 0.0
    # first point of the flat-data curve: -log(1 - 0.3**2)
    assert abs(re0 - (-math.log(0.91))) < 1e-12
    assert abs(im0) < 1e-12
    assert sidecar["convexity_defect"] >= -1e-8
    witness = complex(*sidecar["interior_witness"])
    assert abs(witness) < 1e-12


def test_boundary_is_deterministic(capsys, write_json):
    path = write_json(INTERIOR)
    _, first = run(capsys, boundary_args(path, n="32"))
    _, second = run(capsys, boundary_args(path, n="32"))
    assert first == second


def test_boundary_doubling_keeps_shared_angles(capsys, write_json):
    path = write_json(INTERIOR)
    _, coarse = run(capsys, boundary_args(path, n="8"))
    _, fine = run(capsys, boundary_args(path, n="16"))
    rows8, _ = parse_curve(coarse)
    rows16, _ = parse_curve(fine)
    for k in range(8):
        assert rows8[k][0] == rows16[2 * k][0]
        assert abs(complex(*rows8[k][1:]) - complex(*rows16[2 * k][1:])) < 1e-10


def test_boundary_refuses_non_interior_data(capsys, write_json):
    for payload in (BOUNDARY, EXTERIOR):
        code, _ = run(capsys, boundary_args(write_json(payload)))
        assert code == 3


def test_boundary_impossible_tolerance(capsys, write_json):
    code, _ = run(
        capsys,
        boundary_args(write_json(INTERIOR), extra=("--quad-tol", "1e-18")),
    )
    assert code == 4


def test_boundary_of_a_region_below_the_rounding_of_its_centre(capsys, write_json):
    coeffs = schurvar.data_from_parameters((0.3, 0.2j)).coeffs
    payload = {"coefficients": [[c.real, c.imag] for c in coeffs], "domain": "half-plane"}
    argv = ["boundary", "--input", write_json(payload), "--z0", "1e-20", "--j", "0"]
    assert main(argv) == 4
    assert "region is below the rounding of its centre" in capsys.readouterr().err


def test_quad_tol_env_var_is_ignored(capsys, write_json, monkeypatch):
    # --quad-tol is the one way to set the tolerance: 1e-18 through it exits
    # 4 (test_boundary_impossible_tolerance); from the environment it is unread
    path = write_json(INTERIOR)
    _, want = run(capsys, boundary_args(path))
    monkeypatch.setenv("SCHUR_QUAD_TOL", "1e-18")
    assert run(capsys, boundary_args(path)) == (0, want)


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_quad_tol_that_is_not_positive_and_finite_is_invalid_input(capsys, write_json, value):
    path = write_json(INTERIOR)
    code, out = run(capsys, boundary_args(path, extra=("--quad-tol", value)))
    assert (code, out) == (2, "")


def test_boundary_domain_override_changes_values(capsys, write_json):
    path = write_json(INTERIOR)
    _, half = run(capsys, boundary_args(path))
    _, stripped = run(capsys, boundary_args(path, extra=("--domain", "strip")))
    assert half != stripped


# --------------------------------------------------------------------------
# sample


def test_sample_zero_count(capsys, write_json):
    code, out = run(
        capsys,
        [
            "sample",
            "--input",
            write_json(INTERIOR),
            "--z0",
            "0.3",
            "--j",
            "-1",
            "--count",
            "0",
        ],
    )
    assert code == 0
    assert out.strip() == '{"count": 0, "inside": 0, "max_signed_distance": null}'


def refuse(*args, **kwargs):
    raise AssertionError("computed a request above the cap")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("boundary", "--samples", 10**10),
        ("boundary", "--samples", MAX_SAMPLES + 1),
        ("sample", "--samples", 10**10),
        ("sample", "--count", MAX_COUNT + 1),
        ("sample", "--count", -1),
    ],
)
def test_sizes_above_their_caps_are_refused_before_computing(
    capsys, write_json, monkeypatch, command, flag, value
):
    # the handlers import these from their module when they run
    monkeypatch.setattr(schurvar.regions, "region", refuse)
    monkeypatch.setattr(schurvar.regions, "oracle_samples", refuse)
    argv = [command, "--input", write_json(INTERIOR), "--z0", "0.3", flag, str(value)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1
    argv[-1] = str(MAX_SAMPLES if flag == "--samples" else MAX_COUNT)
    with pytest.raises(AssertionError):
        main(argv)  # the cap itself is accepted


def test_sample_flat_data_all_inside(capsys, write_json):
    argv = [
        "sample",
        "--input",
        write_json(INTERIOR),
        "--z0",
        "0.3",
        "--j",
        "-1",
        "--count",
        "100",
        "--seed",
        "7",
    ]
    code, out = run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 100
    assert payload["inside"] == 100
    assert payload["max_signed_distance"] < 1e-6

    code, again = run(capsys, argv)
    assert code == 0
    assert again == out


def test_sample_refuses_non_interior_data(capsys, write_json):
    code, _ = run(
        capsys,
        ["sample", "--input", write_json(EXTERIOR), "--z0", "0.3"],
    )
    assert code == 3


# --------------------------------------------------------------------------
# verify


def test_verify_reports_all_laws(capsys):
    code, out = run(capsys, ["verify", "--seed", "3", "--draws", "20"])
    assert code == 0
    for law in ("mirror", "determinant", "coercivity", "domination"):
        assert law in out
    assert out.count("PASS") == 4
    assert "FAIL" not in out


def test_verify_refuses_a_negative_draw_count(capsys):
    code = main(["verify", "--draws", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("invalid input:")


def test_verify_is_deterministic(capsys):
    _, first = run(capsys, ["verify", "--seed", "9", "--draws", "10"])
    _, second = run(capsys, ["verify", "--seed", "9", "--draws", "10"])
    assert first == second


# --------------------------------------------------------------------------
# plot


def make_curve(tmp_path, capsys, write_json, n="8"):
    csv_path = tmp_path / "curve.csv"
    code, _ = run(
        capsys,
        boundary_args(write_json(INTERIOR), n=n, extra=("--output", str(csv_path))),
    )
    assert code == 0
    return csv_path


def test_plot_renders_svg(tmp_path, capsys, write_json):
    csv_path = make_curve(tmp_path, capsys, write_json)
    svg_path = tmp_path / "curve.svg"
    code, _ = run(
        capsys, ["plot", "--input", str(csv_path), "--output", str(svg_path)]
    )
    assert code == 0
    svg = svg_path.read_text()
    assert svg.startswith("<svg")
    assert svg.count("<path") == 1
    assert svg.count("<circle") == 1  # the interior witness marker
    path_part = svg.split("<path")[1].split("/>")[0]
    assert path_part.count(" L ") == 8  # closed: all 8 vertices after the move
    assert ' Z"' in path_part
    assert svg.count("<text") >= 4  # axis tick labels


def test_plot_is_deterministic(tmp_path, capsys, write_json):
    csv_path = make_curve(tmp_path, capsys, write_json, n="16")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, ["plot", "--input", str(csv_path), "--output", str(a)])
    run(capsys, ["plot", "--input", str(csv_path), "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_plot_rejects_header_only_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("theta,re,im\n")
    code, _ = run(
        capsys, ["plot", "--input", str(path), "--output", str(tmp_path / "o.svg")]
    )
    assert code == 2


def test_plot_rejects_a_csv_without_its_header(tmp_path, capsys):
    path = tmp_path / "headless.csv"
    path.write_text("0,1,0\n1,0,1\n2,-1,0\n")
    code = main(["plot", "--input", str(path), "--output", str(tmp_path / "o.svg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_plot_rejects_malformed_rows(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("theta,re,im\n0.0,1.0\n")
    code, _ = run(
        capsys, ["plot", "--input", str(path), "--output", str(tmp_path / "o.svg")]
    )
    assert code == 2


@pytest.mark.parametrize(
    "sidecar",
    [
        '# {"interior_witness": [' + "9" * 400 + ", 0]}",
        '# {"interior_witness": [true, "0.5"]}',
        '# {"interior_witness": [0.5, "0.1"]}',
        "# [1, 2]",
    ],
    ids=["huge", "bool-and-string", "string", "list"],
)
def test_plot_rejects_a_witness_too_large_for_a_float(tmp_path, capsys, sidecar):
    # and a witness that is not two JSON numbers, or a sidecar that is not
    # a JSON object
    path = tmp_path / "big.csv"
    path.write_text("theta,re,im\n0,0.0,0.0\n1,1.0,0.0\n2,0.0,1.0\n" + sidecar + "\n")
    code = main(["plot", "--input", str(path), "--output", str(tmp_path / "o.svg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_plot_missing_input(tmp_path, capsys):
    code, _ = run(
        capsys,
        ["plot", "--input", str(tmp_path / "no.csv"), "--output", str(tmp_path / "o.svg")],
    )
    assert code == 2


@pytest.mark.parametrize(
    "rows",
    [
        [(0.0, 0.0), (math.inf, 0.0), (0.0, 1.0)],  # non-finite coordinate
        [(1e20, 0.0), (1e20, 1.0), (1e20, 2.0)],  # x extent rounds to zero
        [(-1e308, 0.0), (1e308, 1.0), (0.0, 2.0)],  # x extent overflows
    ],
)
def test_plot_rejects_unplottable_coordinates(tmp_path, capsys, rows):
    path = tmp_path / "bad.csv"
    body = "".join(f"{k},{re!r},{im!r}\n" for k, (re, im) in enumerate(rows))
    path.write_text("theta,re,im\n" + body)
    code = main(["plot", "--input", str(path), "--output", str(tmp_path / "o.svg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("invalid input:") and err.count("\n") == 1


def test_plot_ends_on_extent_below_float_spacing(tmp_path):
    # the tick step is below the spacing of floats near 1, so t += step
    # no longer moves t; run as a child so a regression fails, not hangs
    tiny = 1.0 + 2.0**-52
    path = tmp_path / "tiny.csv"
    path.write_text(f"theta,re,im\n0,1.0,1.0\n1,{tiny!r},1.0\n2,1.0,{tiny!r}\n")
    svg = tmp_path / "tiny.svg"
    src = str(Path(schurvar.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-m", "schurvar", "plot", "--input", str(path)]
        + ["--output", str(svg)],
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    text = svg.read_text()
    assert text.startswith("<svg")
    # ceil(1 / step) * step rounds below 1: no tick may leave the plot area
    ticks = re.findall(
        r'class="tick" x1="([-\d.]+)" y1="([-\d.]+)" x2="([-\d.]+)" y2="([-\d.]+)"', text
    )
    assert ticks
    for x1, y1, x2, y2 in (tuple(map(float, t)) for t in ticks):
        if x1 == x2:  # a tick on the x axis
            assert 62.0 <= x1 <= 622.0
        else:
            assert y1 == y2 and 18.0 <= y1 <= 438.0
