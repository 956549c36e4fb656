import json
import os

import numpy as np
import pytest

from walshcs.cli import EXIT_CONFIG, EXIT_GUARD, EXIT_OK, main


def run(args):
    return main(args)


def test_matrix_outputs(tmp_path, capsys):
    out = tmp_path / "m"
    code = run(["matrix", "--order", "1", "--N", "16", "--out", str(out)])
    assert code == EXIT_OK
    csv = out / "matrix_p1_N16.csv"
    pgm = out / "matrix_p1_N16.pgm"
    assert csv.exists() and pgm.exists()
    section = np.loadtxt(csv, delimiter=",")
    assert section.shape == (16, 16)
    # Haar section is block diagonal with constant magnitudes per level
    assert abs(abs(section[3, 2]) - 2.0 ** -0.5) < 1e-12
    assert pgm.read_bytes().startswith(b"P5\n16 16\n255\n")


def test_matrix_size_guard(tmp_path):
    code = run(["matrix", "--order", "1", "--N", str(1 << 13), "--out", str(tmp_path)])
    assert code == EXIT_GUARD


@pytest.mark.parametrize(
    "argv",
    [
        ["matrix", "--order", "1", "--N", "0"],  # an empty section
        ["analyze", "--order", "4", "--N", "16", "--q", "5"],  # below 2^(J0 + 1 + q) = 512
        ["analyze", "--order", "4", "--N", "1000"],  # not a power of two
        ["analyze", "--order", "4", "--N", "0"],
    ],
)
def test_bad_n_is_a_config_error(tmp_path, capsys, argv):
    assert run([*argv, "--out", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: N")
    assert not list(tmp_path.iterdir())


def test_analyze_reports(tmp_path):
    out = tmp_path / "a"
    code = run(["analyze", "--order", "1", "--J0", "0", "--N", "16", "--out", str(out)])
    assert code == EXIT_OK
    names = sorted(os.listdir(out))
    assert any(n.startswith("coherence") for n in names)
    assert any(n.startswith("balancing") for n in names)
    assert any(n.startswith("sparsity") for n in names)
    rows = (out / "coherence_p1_N16.csv").read_text().splitlines()
    assert rows[0] == "k,l,value,bound_shape,ratio"
    # the balancing rows come in ascending N
    out = tmp_path / "a4"
    assert run(["analyze", "--order", "1", "--N", "4", "--out", str(out)]) == EXIT_OK
    rows = (out / "balancing_p1_N4.csv").read_text().splitlines()[1:]
    assert [int(row.split(",")[0]) for row in rows] == [4, 8]


def test_reconstruct_full_pipeline(tmp_path):
    out = tmp_path / "r"
    code = run(
        [
            "reconstruct", "--signal", "f", "--order", "4", "--R", "5", "--q", "1",
            "--budget", "32", "--seed", "3", "--L", "256", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    summaries = [n for n in os.listdir(out) if n.startswith("summary")]
    assert len(summaries) == 1
    record = json.loads((out / summaries[0]).read_text())
    assert record["N"] == 64 and record["budget"] == 32
    assert 0.0 <= record["cs_error"] < 1.0
    # 32 samples x 256 coefficients lies under the solver's dense-section rule
    assert record["dense_section"] is True
    # its forward products read A's columns: no apply, one adjoint per iteration
    assert record["applies"] == 0 and record["adjoints"] == record["iterations"]
    for prefix in ("rec_", "coeffs_", "tw_", "pattern_"):
        assert any(n.startswith(prefix) for n in os.listdir(out))


def test_reconstruct_reproducible(tmp_path):
    args = [
        "reconstruct", "--signal", "g", "--order", "3", "--R", "5", "--q", "1",
        "--budget", "24", "--seed", "7", "--L", "128",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out", str(out_a)]) == EXIT_OK
    assert run(args + ["--out", str(out_b)]) == EXIT_OK
    for name in os.listdir(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_errorcurve(tmp_path):
    out = tmp_path / "e"
    code = run(
        [
            "errorcurve", "--signal", "f", "--order", "4", "--R", "5",
            "--budget", "32", "--seed", "1", "--L", "256",
            "--N-list", "64,128", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    path = out / "errorcurve_f_m32_seed1.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "N,cs_error,tw_error"
    assert len(lines) == 3
    assert [int(line.split(",")[0]) for line in lines[1:]] == [64, 128]


def test_fliptest(tmp_path):
    out = tmp_path / "fl"
    code = run(
        [
            "fliptest", "--signal", "f", "--order", "4", "--R", "5", "--q", "1",
            "--budget", "32", "--seed", "2", "--L", "256", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    summary = [n for n in os.listdir(out) if n.startswith("flip_summary")][0]
    record = json.loads((out / summary).read_text())
    assert record["flipped_error"] > record["structured_error"]


def test_sweep(tmp_path):
    out = tmp_path / "s"
    code = run(
        [
            "sweep", "--signal", "f", "--order", "4", "--R", "5", "--q", "1",
            "--seed", "1", "--L", "256", "--budget-list", "24,32", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    path = out / "sweep_f_N64_seed1.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "budget,cs_error,tw_error"
    assert len(lines) == 3


def test_config_file_and_overrides(tmp_path):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("signal = f\nbudget = 32\nR = 5\nq = 1\nL = 256\nseed = 4\nmax_iter = 800\n")
    out = tmp_path / "c"
    code = run(["reconstruct", "--config", str(cfgfile), "--budget", "24", "--out", str(out)])
    assert code == EXIT_OK
    record = json.loads(
        (out / [n for n in os.listdir(out) if n.startswith("summary")][0]).read_text()
    )
    assert record["budget"] == 24  # the flag overrides the file


def test_matrix_and_analyze_read_the_config_file(tmp_path):
    cfgfile = tmp_path / "haar.cfg"
    cfgfile.write_text("order = 1\nJ0 = 0\nq = 1\nbudget = 4\n")
    out = tmp_path / "m"
    assert run(["matrix", "--config", str(cfgfile), "--N", "16", "--out", str(out)]) == EXIT_OK
    assert np.loadtxt(out / "matrix_p1_N16.csv", delimiter=",").shape == (16, 16)

    def analyze(name, *argv):
        out = tmp_path / name
        assert run(["analyze", *argv, "--N", "16", "--out", str(out)]) == EXIT_OK
        return {n: (out / n).read_text() for n in sorted(os.listdir(out))}

    from_file = analyze("file", "--config", str(cfgfile))
    from_flags = analyze("flags", "--order", "1", "--J0", "0", "--q", "1", "--budget", "4")
    assert from_file == from_flags
    # q = 1 leaves 3 levels below N = 16; the flag overrides the file
    assert len(from_file["sparsity_p1_N16.csv"].splitlines()) == 1 + 3
    assert len(analyze("q0", "--config", str(cfgfile), "--q", "0")["sparsity_p1_N16.csv"]
               .splitlines()) == 1 + 4
    # the budget sets K in the balancing check
    budget64 = analyze("b64", "--config", str(cfgfile), "--budget", "64")
    assert budget64["balancing_p1_N16.csv"] != from_file["balancing_p1_N16.csv"]


def test_bad_config_exit_codes(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 3\n")
    assert run(["reconstruct", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert (
        run(["reconstruct", "--signal", "f", "--order", "4", "--R", "2",
             "--out", str(tmp_path)])
        == EXIT_CONFIG
    )
    with pytest.raises(SystemExit) as exc:
        main(["errorcurve", "--signal", "f"])  # missing required N list
    assert exc.value.code == 2


def test_malformed_level_spec(tmp_path):
    code = run(
        ["errorcurve", "--signal", "f", "--order", "4", "--R", "5", "--budget", "32",
         "--L", "256", "--N-list", "48", "--out", str(tmp_path)]
    )
    assert code == EXIT_CONFIG
