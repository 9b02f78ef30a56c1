import contextlib
import csv
import io
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from cancelsum.cli import _FORMS, _KERNELS, _build_parser, _rate, main
from cancelsum.numerics import PrecisionContext, required_bits

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(argv):
    """The CLI in a fresh interpreter, as a user runs it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                          text=True, timeout=120)


def assert_one_error_line(proc, code):
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert set(json.loads(proc.stderr)) == {"error"}
    assert proc.stdout == ""


def rows_of(out: str) -> list:
    return list(csv.DictReader(io.StringIO(out)))


# ---------------------------------------------------------------------------
# exit codes and error channel


def test_pnt_verify_ok(capsys):
    code, out, err = run(["pnt-verify", "--x-max", "50"], capsys)
    assert code == 0
    assert err == ""
    (row,) = rows_of(out)
    assert row == {"x_max": "50", "failures": "0", "first_failure": "",
                   "status": "ok"}


def test_pnt_verify_corruption(capsys):
    code, out, _ = run(["pnt-verify", "--x-max", "50", "--inject-corruption"],
                       capsys)
    assert code == 1
    (row,) = rows_of(out)
    assert row["status"] == "violated"
    assert int(row["failures"]) >= 1
    assert row["first_failure"] != ""


def test_missing_args_exit_2(capsys):
    code, out, err = run(["psi-sum"], capsys)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_unknown_form_exit_2(capsys):
    code, _, err = run(["osc-sum", "--x", "10", "--form", "bogus"], capsys)
    assert code == 2
    assert "bogus" in json.loads(err)["error"]


def test_bad_format_choice_usage_error(capsys):
    code, out, err = run(["pnt-verify", "--x-max", "5", "--format", "xml"], capsys)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "xml" in json.loads(err)["error"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "pnt-verify" in capsys.readouterr().out


def test_resource_error_exit_3(capsys):
    # sieve limit e^sqrt(400) far beyond the supported range
    code, _, err = run(["psi-sum", "--x", "400", "--T", "1"], capsys)
    assert code == 3
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ["osc-sum", "--x", "abc"],
    ["pte-verify", "--n", "abc", "--m", "1"],
    ["pnt-verify", "--x-max", "abc"],
    ["osc-sum", "--x", "1/0"],
    ["osc-sum", "--x-grid", "geom:1:2"],
    ["bound", "--a", "-1", "--x", "10"],
    ["frm-degree", "--r", "0"],
    ["osc-sum", "--bogus", "1"],
    ["osc-sum", "--x", "10", "--format", "xml"],
    ["contour-check", "--x", "1/10", "--kernel", "exp_sqrt", "--c", "1",
     "--max-rel-err", "abc"],
    ["pte-construct", "--n", "100", "--m", "1", "--no-adjust"],
    # removed flags: a config file and an output path (use > PATH)
    ["pnt-verify", "--config", "f"],
    ["osc-sum", "--x", "10", "--out", "f"],
    # removed: the Bessel kernel and its order, synthetic fits, the
    # contour tolerance (always 1e-14) and linear grids
    ["osc-sum", "--x", "10", "--kernel", "bessel"],
    ["osc-sum", "--x", "10", "--alpha-order", "1"],
    ["exponent-fit", "--synthetic", "1000,0", "--x-grid", "lin:100:10000:3"],
    ["exponent-fit", "--x-grid", "100,200,300", "--synthetic", "0.25,1"],
    ["contour-check", "--x", "50", "--kernel", "exp_sqrt", "--tol", "1e-14"],
    ["osc-sum", "--x-grid", "lin:100:1000:3"],
    # a flag on a subcommand that does not read it
    ["pnt-verify", "--x-max", "5", "--bits", "200"],
    ["osc-sum", "--x", "10", "--sieve-cache", "s"],
    # exclusive alternatives
    ["osc-sum", "--x", "10", "--x-grid", "10,20"],
    ["frm-degree", "--r", "2", "--r-max", "3"],
    # a prefix of a flag is not the flag (--x-max, --delta-slack)
    ["pnt-verify", "--x", "50"],
    ["bound", "--x", "10", "--del", "1"],
    # the contour's height u sqrt(x) needs x > 0
    ["contour-check", "--x", "-19", "--kernel", "exp_sqrt", "--form", "custom",
     "--a", "1/3", "--b", "5", "--d", "-2", "--bits", "320"],
    pytest.param([], id="no subcommand"),
], ids=" ".join)
def test_bad_input_one_error_line(argv):
    assert_one_error_line(run_process(["-m", "cancelsum.cli"] + argv), 2)


@pytest.mark.parametrize("argv", [
    ["osc-sum", "--x", "1e5000"],
    ["osc-sum", "--x", "1e300"],
    ["osc-sum", "--x", "1e30"],
    ["osc-sum", "--x", "100", "--bits", "1000000"],
    ["psi-sum", "--x", "1e30", "--T", "1"],
    ["psi-half", "--x", "1e30", "--T", "1"],
    ["contour-check", "--x", "3/2", "--kernel", "exp_sqrt", "--c", "1e30"],
], ids=" ".join)
def test_precision_budget_exit_3(argv):
    # auto precision for a huge x or growth, an explicit --bits, or a
    # sieve to e^sqrt(x), above the ceiling
    assert_one_error_line(run_process(["-m", "cancelsum.cli"] + argv), 3)


@pytest.mark.parametrize("argv", [
    ["contour-check", "--x", "1e30", "--kernel", "exp_sqrt"],
    ["osc-sum", "--x", "1e30", "--kernel", "power"],
    ["lemma-sum", "--x", "1e30", "--T", "1", "--k", "2"],
    ["contour-check", "--x", "50", "--u", "1e20", "--kernel", "exp_sqrt", "--c", "1",
     "--form", "square"],
    ["psi-sum", "--x", "3", "--T", "1e30"],
    ["psi-half", "--x", "3", "--T", "1e30"],
    ["pte-construct", "--n", "1000000000", "--m", "1"],
    ["pnt-verify", "--x-max", "1000000"],
    ["frm-degree", "--r-max", "100000"],
    ["pte-verify", "--n", "100", "--m", "1", "--r-max", "100000"],
    ["pte-verify", "--n", "1000000", "--m", "1", "--r-max", "64"],
    ["pte-construct", "--n", "100", "--m", "100"],
    ["pte-verify", "--n", "100", "--m", "200"],
    ["osc-sum", "--kernel", "power", "--x-grid", "geom:100:101:100000000"],
], ids=" ".join)
def test_work_budget_exit_3(argv):
    # index ranges, initial contour panels, partition tables, powers r,
    # power-sum tables n x r, pair exponents m and grid points are capped
    # before any work
    assert_one_error_line(run_process(["-m", "cancelsum.cli"] + argv), 3)


def test_cli_import_leaves_numpy_out():
    proc = run_process(["-c", "import cancelsum.cli, sys; "
                              "assert 'numpy' not in sys.modules"])
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# determinism and output plumbing


def test_byte_identical_runs(capsys):
    argv = ["osc-sum", "--x", "2000", "--kernel", "p2", "--bits", "300"]
    for fmt in ("csv", "json"):
        outs = []
        for _ in range(2):
            code, out, _ = run(argv + ["--format", fmt], capsys)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


# --config is not a flag: whatever the file holds, the flag itself is the
# usage error (exit 2, one error line naming it) and the file is never read.


@pytest.mark.parametrize("text", ["{bad", "\udcff"], ids=["not JSON", "not UTF-8"])
def test_malformed_config_one_error_line(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = ["-m", "cancelsum.cli", "pnt-verify", "--config", str(cfg)]
    proc = run_process(argv)
    assert_one_error_line(proc, 2)
    assert "--config" in json.loads(proc.stderr)["error"]


def test_config_must_be_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, out, err = run(["pnt-verify", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert "--config" in json.loads(err)["error"]
    cfg.write_text(json.dumps({"x_max": 100}))
    code, out, err = run(["pnt-verify", "--config", str(cfg)], capsys)
    assert (code, out) == (2, "")
    assert "--config" in json.loads(err)["error"]


def test_sieve_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    argv = ["psi-sum", "--x", "40", "--T", "3000", "--bits", "192",
            "--sieve-cache", str(cache)]
    code, first, _ = run(argv, capsys)
    assert code == 0
    assert cache.exists()
    blob = cache.read_bytes()
    assert blob[:4] == b"LSIV"
    code, second, _ = run(argv, capsys)
    assert code == 0
    assert second == first
    assert cache.read_bytes() == blob


def test_truncated_sieve_cache_fails(tmp_path, capsys):
    cache = tmp_path / "sieve.bin"
    argv = ["psi-sum", "--x", "40", "--T", "3000", "--sieve-cache", str(cache)]
    code, _, _ = run(argv, capsys)
    assert code == 0
    blob = cache.read_bytes()
    cache.write_bytes(blob[:len(blob) // 2])
    code, out, err = run(argv, capsys)
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err)


def test_version_2_sieve_cache_fails(tmp_path):
    # the former format: (prime power, prime) u64 pairs after a version-2
    # header; only version 3 is read
    pairs = [(2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3)]
    body = b"".join(struct.pack("<QQ", pp, p) for pp, p in pairs)
    cache = tmp_path / "sieve.bin"
    cache.write_bytes(struct.pack("<4sIQQI", b"LSIV", 2, 10, len(pairs), zlib.crc32(body))
                      + body)
    proc = run_process(["-m", "cancelsum.cli", "psi-sum", "--x", "4", "--T", "1",
                        "--sieve-cache", str(cache)])
    assert_one_error_line(proc, 2)
    assert "version 2" in json.loads(proc.stderr)["error"]


# ---------------------------------------------------------------------------
# per-command output content


def test_osc_sum_row(capsys):
    code, out, _ = run(["osc-sum", "--x", "2000", "--kernel", "p2",
                        "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row["x"] == "2000"
    assert row["terms"] == 73
    assert row["bits"] == 262
    assert abs(float(row["abs"]) - 0.01209285103186) < 1e-11
    # ratio column is recomputable from the row
    assert abs(float(row["ratio"]) - float(row["abs"]) / float(row["bound"])) < 1e-12


@pytest.mark.parametrize("kernel,c", [(["--kernel", "p2"], "growth-p1"),
                                      (["--kernel", "exp_sqrt", "--c", "1/3"], "1/3")],
                         ids=["p2", "exp_sqrt-c1/3"])
def test_osc_sum_bound_is_the_bound_command(kernel, c, capsys):
    # osc-sum's bound comes from the kernel's exact rate, so every printed
    # digit matches `bound` for the same a and c; the bits do not move
    code, out, _ = run(["osc-sum", "--x", "1000"] + kernel, capsys)
    assert code == 0
    (row,) = rows_of(out)
    code, out, _ = run(["bound", "--a", "3/2", "--c", c, "--x", "1000"], capsys)
    assert code == 0
    assert row["bound"] == rows_of(out)[0]["bound"]
    assert row["bits"] == {"growth-p1": "214", "1/3": "128"}[c]


def test_x_grid_specs(capsys):
    code, out, _ = run(["osc-sum", "--x-grid", "geom:100:1000:3",
                        "--kernel", "p2"], capsys)
    assert code == 0
    assert [r["x"] for r in rows_of(out)] == ["100", "316", "1000"]
    code, out, _ = run(["osc-sum", "--x-grid", "10,20", "--kernel", "p2"],
                       capsys)
    assert [r["x"] for r in rows_of(out)] == ["10", "20"]


def test_bound_families(capsys):
    code, out, _ = run(["bound", "--family", "main1", "--a", "3/2",
                        "--c", "growth-p1", "--x", "100"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["a"] == "3/2"
    assert abs(float(row["w"]) - 0.300283) < 1e-4
    assert float(row["bound"]) > 0

    code, out, _ = run(["bound", "--family", "main2", "--alpha", "1",
                        "--beta", "50", "--T", "10000", "--x", "100"], capsys)
    assert code == 0
    assert float(rows_of(out)[0]["bound"]) > 0

    code, _, err = run(["bound", "--family", "main9", "--x", "10"], capsys)
    assert code == 2
    assert "main9" in json.loads(err)["error"]


def test_psi_sum_row(capsys):
    code, out, _ = run(["psi-sum", "--x", "40", "--T", "3000",
                        "--bits", "192"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["method"] == "bucket"
    assert row["terms"] == "693"
    assert abs(float(row["abs"]) - 40.7685498) < 1e-6


def test_psi_sum_methods_agree(capsys):
    base = ["psi-sum", "--x", "40", "--T", "3000", "--bits", "192"]
    _, bucket, _ = run(base + ["--method", "bucket"], capsys)
    _, direct, _ = run(base + ["--method", "direct"], capsys)
    (rb,) = rows_of(bucket)
    (rd,) = rows_of(direct)
    assert rb.pop("method") == "bucket"
    assert rd.pop("method") == "direct"
    assert rb == rd  # identical digits field by field


def test_psi_sum_bad_method_before_sieve(tmp_path, capsys):
    cache = tmp_path / "s.lsiv"
    code, out, err = run(["psi-sum", "--x", "150", "--T", "3000", "--method", "foo",
                          "--sieve-cache", str(cache)], capsys)
    assert code == 2
    assert out == ""
    assert "foo" in json.loads(err)["error"]
    assert not cache.exists()  # rejected before the sieve was built or written


def test_psi_half_row(capsys):
    code, out, _ = run(["psi-half", "--x", "40", "--T", "3000",
                        "--bits", "192"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["ell_max"] == "346"
    assert float(row["boundary"]) == 0
    assert abs(float(row["psi_full"]) - 549.369561059901) < 1e-9
    assert abs(float(row["rel_err"]) - 0.0371048) < 1e-6


def test_pte_construct_row(capsys):
    code, out, _ = run(["pte-construct", "--n", "100", "--m", "1"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row == {"n": "100", "m": "1", "N": "35", "adjusted": "True",
                   "k_regime": "4"}


def test_pte_verify_table(capsys):
    code, out, _ = run(["pte-verify", "--n", "100", "--m", "1"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert list(rows[0]) == ["r", "diff", "bound", "ratio", "within_regime"]
    assert [r["r"] for r in rows] == ["1", "2", "3", "4"]
    assert rows[0]["diff"] == "19900"
    assert all(r["within_regime"] == "True" for r in rows)


def test_frm_degree_json(capsys):
    code, out, _ = run(["frm-degree", "--r", "2", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert row["r"] == 2
    assert row["degree"] == 1
    assert row["coeffs"] == ["0", "-2"]
    assert row["bound_ok"] is True


def test_frm_degree_csv_sweep(capsys):
    code, out, _ = run(["frm-degree", "--r-max", "4"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert [int(r["degree"]) for r in rows] == [1, 1, 3, 3]
    assert rows[3]["coeffs"] == "0;-34;0;128"


def test_lemma_sum_exact(capsys):
    code, out, _ = run(["lemma-sum", "--x", "1", "--T", "4", "--k", "2"],
                       capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["value"] == "-1/2"
    assert row["exact_rational"] == "True"
    assert float(row["bound"]) > 0


def test_pigeonhole_rows(capsys):
    code, out, _ = run(["pigeonhole", "--n", "100", "--k", "20"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["c"] == "11/21"
    assert abs(float(row["c_float"]) - 11 / 21) < 1e-15
    _, out, _ = run(["pigeonhole", "--n", "10", "--k", "4"], capsys)
    assert rows_of(out)[0]["c"] == "0"


def _power_reference(x: int):
    """Exact sum of (-1)^n (x - q(n)) over q(n) = n(3n-1)/2 < x, and the
    largest term x."""
    n_max = math.isqrt(x) + 2
    total = sum((-1) ** n * (x - n * (3 * n - 1) // 2)
                for n in range(-n_max, n_max + 1) if n * (3 * n - 1) // 2 < x)
    return mpf(total), mpf(x)


@pytest.mark.parametrize("flags, reference", [
    (["--kernel", "power", "--k-half", "1", "--form", "pentagonal"], _power_reference),
], ids=["power"])
def test_osc_sum_kernel_against_oracle(flags, reference, capsys):
    code, out, _ = run(["osc-sum", "--x-grid", "50,400"] + flags, capsys)
    assert code == 0
    rows = rows_of(out)
    assert [row["x"] for row in rows] == ["50", "400"]
    for row in rows:
        x, bits = int(row["x"]), int(row["bits"])
        with mp.workprec(bits + 64):
            want, largest = reference(x)
            tol = largest * mpf(2) ** -(bits - 16)
            assert abs(mpf(row["re"]) - want) <= tol
            assert abs(mpf(row["im"])) <= tol


def test_contour_check_gate(capsys):
    argv = ["contour-check", "--x", "50", "--kernel", "exp_sqrt", "--c", "1",
            "--form", "square", "--T", "1"]
    code, out, _ = run(argv + ["--max-rel-err", "1e-12"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert abs(float(row["quad_im"]) - 27.4163064188881) < 1e-9
    assert float(row["rel_err"]) <= 1e-12
    assert all(row["leg%d" % i] for i in range(1, 5))

    code, _, _ = run(argv + ["--max-rel-err", "1e-30"], capsys)
    assert code == 1


def test_contour_check_json_keys(capsys):
    code, out, _ = run(["contour-check", "--x", "0.1", "--kernel", "exp_sqrt",
                        "--c", "1", "--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    assert set(row) == {"x", "u", "quad_re", "quad_im", "discrete_re",
                        "discrete_im", "rel_err", "leg_mags"}
    assert len(row["leg_mags"]) == 4


_CONTOUR_HEADER = "x,u,quad_re,quad_im,discrete_re,discrete_im,rel_err,leg1,leg2,leg3,leg4"


@pytest.mark.parametrize("args,fields", [
    (["--x", "49", "--kernel", "exp_sqrt", "--c", "growth-p1", "--form", "pentagonal"], [
        "49.0", "1", "0.0",
        "3520.311921062309275758991612914575493052442872059574325938962177271582189216544066939749624670687468",
        "0.0",
        "3520.311921062309275829744486224522638331100968173127038118860686835305539108481451682162814249862244",
        "2.0098467095096608e-20",
        "4912.495941902060710032193321739148443725865096504510888110754726306260874809162569815023507991825374",
        "2659.229846518002687582720072550796571245479076127002072291649624890760923182323627981384400028117133",
        "4912.495941902060710032193321739148443725865096504510888110754726306260874809162569815023507991825374",
        "2355.047714163035621402279791690135117457880675883819767717038089546704389891737464342896336078030600",
    ]),
    (["--x", "100", "--kernel", "complex_exp", "--alpha", "1", "--beta", "10", "--T", "100",
      "--form", "square"], [
        "100.0", "1",
        "-998.2215686478611266725382276385354520283661713194408447889903753263380570249572704794738482438054058",
        "-424.4458368983210816310286904856666704081639961077924389711707009782876611879060308400294634793421462",
        "-998.2215686478611266725392969542546553768956885067394074883179981964272148147589685914570541766719110",
        "-424.4458368983210816310284352054144898315476666408835825927551366926120732107179912531849256344410883",
        "1.0135087611269228e-24",
        "20.17604200809035589407381371345133405146025325475761731992580991257582291022146144302299148732803965",
        "526.9693428584381291911524279078461792629642298124865080757879086012751446471655186106075583843080525",
        "20.17604200809035589407381371345133405146025325475761731992580991257582291022146144302299148732803965",
        "526.9693428584381291911524279078461792629642298124865080757879086012751446471655186106075583843080525",
    ]),
    (["--x", "30", "--kernel", "power", "--k-half", "3", "--form", "square"], [
        "30.0", "1", "0.0",
        "565.4866776461627829232760985858945004444838003973504177288083039045062866892564007720754625422439770",
        "0.0",
        "565.4866776461627829232758089903105191554904918875190477754900266154069531315176197530462685615810722",
        "5.121174298689583e-25",
        "0.03470797934744760200993722627581106319426397783693421509933261887236684820886497156335329788714949645",
        "282.7086308437339438596281120666714391590476362208382746493048193333807764964193354144743779732348390",
        "0.03470797934744760200993722627581106319426397783693421509933261887236684820886497156335329788714949645",
        "282.7086308437339438596281120666714391590476362208382746493048193333807764964193354144743779732348390",
    ]),
], ids=["exp_sqrt-pentagonal-x49", "complex_exp-square-x100", "power-square-x30"])
def test_contour_check_stdout_pinned(capsys, args, fields):
    # every digit of the quadrature, its legs and rel_err, as first
    # recorded: a change to how the integrand or a panel is evaluated
    # must leave them bit for bit, on the real, odd and real-odd paths
    code, out, err = run(["contour-check", "--bits", "320"] + args, capsys)
    assert (code, err) == (0, "")
    assert out == _CONTOUR_HEADER + "\n" + ",".join(fields) + "\n"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "each leg converges to the 1e-14 tolerance relative to its own value, not "
    "to the total: the legs reach 3.7e19 against a total of 1.75e4, so the "
    "quadrature misses the discrete side by rel_err 3.30e-11 > 1e-12"))
def test_contour_check_legs_far_above_the_total(capsys):
    code, out, _ = run(["contour-check", "--x", "50", "--kernel", "complex_exp",
                        "--alpha", "1", "--beta", "10", "--T", "100", "--form",
                        "pentagonal", "--bits", "320", "--max-rel-err", "1e-12"], capsys)
    (row,) = rows_of(out)
    assert float(row["rel_err"]) <= 1e-12
    assert code == 0


# ---------------------------------------------------------------------------
# property: 64 bits above the precision policy's choice move no printed
# value by more than 2^-(bits-8) times the size of the terms it sums


def _osc_sum_case(*flags):
    def case(draw):
        x = draw(st.integers(20, 2000))
        argv = ["osc-sum", "--x", str(x)] + list(flags)
        args = _build_parser().parse_args(argv)
        kernel, q = _KERNELS[args.kernel](args), _FORMS[args.form](args)
        bits = required_bits(x, kernel.growth)
        lo, hi = q.index_range(x)
        ctx = PrecisionContext(bits=bits + 64)
        with ctx.workprec():
            K = kernel.bind_real(ctx)
            scale = max(abs(K(x - q.evaluate(n))) for n in range(lo, hi + 1))
        return argv, bits, {"re": scale, "im": scale, "bound": None}
    return case


def _psi_sum_case(draw):
    x, T = draw(st.integers(4, 60)), draw(st.integers(1, 3000))
    with mp.workprec(64):
        scale = mp.exp(mp.sqrt(x))  # psi(e^sqrt(x)), the largest term, is about e^sqrt(x)
    argv = ["psi-sum", "--x", str(x), "--T", str(T)]
    return argv, required_bits(x, 0), {"re": scale, "im": scale}


def _lemma_sum_case(draw):
    x, T = draw(st.integers(1, 400)), draw(st.integers(1, 50))
    k = draw(st.sampled_from([1, 3, 5, 7]))
    argv = ["lemma-sum", "--x", str(x), "--T", str(T), "--k", str(k)]
    with mp.workprec(64):
        scale = mpf(x) ** (mpf(k) / 2)  # the l = 0 term, the largest
    return argv, required_bits(x, 0), {"value": scale, "bound": None}


def _bound_case(draw):
    x, c = draw(st.integers(1, 10**5)), draw(st.sampled_from(["growth-p1", "growth-p3", "1/3"]))
    argv = ["bound", "--family", "main1", "--a", "3/2", "--c", c, "--x", str(x)]
    return argv, required_bits(x, _rate(c)), {"bound": None}


# flags beyond --kernel: a steep rate, a power that is not an integer,
# a complex exponent
_KERNEL_ARGS = {"exp_sqrt": ("--c", "growth-p1"), "power": ("--k-half", "3/2"),
                "complex_exp": ("--alpha", "1", "--beta", "7", "--T", "100", "--form", "square")}
_POLICY_CASES = {
    **{"osc-sum " + k: _osc_sum_case("--kernel", k, *_KERNEL_ARGS.get(k, ())) for k in _KERNELS},
    "psi-sum": _psi_sum_case,
    "lemma-sum odd k": _lemma_sum_case,
    "bound": _bound_case,
}


def _json_row(argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--format", "json"])
    assert (code, err.getvalue()) == (0, "")
    (row,) = json.loads(out.getvalue())
    return row


@pytest.mark.parametrize("case", sorted(_POLICY_CASES))
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_policy_bits_agree_with_64_more(case, data):
    # each compared column, against the size of the terms its value sums
    # (None: against the value itself)
    argv, bits, scales = data.draw(st.composite(_POLICY_CASES[case])())
    at_policy = _json_row(argv)
    above = _json_row(argv + ["--bits", str(bits + 64)])
    assert at_policy.get("bits", bits) == bits
    with mp.workprec(bits + 128):
        tol = mpf(2) ** (8 - bits)
        for column, scale in scales.items():
            if at_policy[column] is None:
                assert above[column] is None
                continue
            low, high = mpf(at_policy[column]), mpf(above[column])
            assert abs(low - high) <= tol * (abs(high) if scale is None else scale), column


# Minimal valid arguments of each subcommand.  Only parsing runs here.
_VALID = {
    "pnt-verify": ["--x-max", "5"],
    "osc-sum": ["--x", "10"],
    "bound": ["--x", "10"],
    "psi-sum": ["--x", "10", "--T", "1"],
    "psi-half": ["--x", "10", "--T", "1"],
    "pte-construct": ["--n", "10", "--m", "1"],
    "pte-verify": ["--n", "10", "--m", "1"],
    "frm-degree": ["--r", "2"],
    "lemma-sum": ["--x", "1", "--T", "4", "--k", "2"],
    "contour-check": ["--x", "50"],
    "exponent-fit": ["--x-grid", "100,200"],
    "pigeonhole": ["--n", "10", "--k", "4"],
}
_PRECISION = {"osc-sum", "bound", "psi-sum", "psi-half", "lemma-sum",
              "contour-check", "exponent-fit"}
_SIEVE = {"psi-sum", "psi-half"}


@pytest.mark.parametrize("command", sorted(_VALID))
def test_flags_only_where_read(command, capsys):
    # each flag parses only on the subcommands that read it
    base = [command] + _VALID[command]
    parser = _build_parser()
    assert parser.parse_args(base + ["--format", "json"]).format == "json"
    for flag, owners in (("--bits", _PRECISION), ("--sieve-cache", _SIEVE),
                         ("--config", ()), ("--out", ())):
        argv = base + [flag, "7"]
        if command in owners:
            args = parser.parse_args(argv)
            assert str(getattr(args, flag[2:].replace("-", "_"))) == "7"
            continue
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert flag in json.loads(err)["error"]


# ---------------------------------------------------------------------------
# property: any argv ends in an exit code and at most one error line

_UNKNOWN_FLAGS = ["--bogus", "--config", "--out"]
_KERNEL_FLAGS = ["--kernel", "--c", "--form", "--T", "--a", "--b", "--d", "--alpha",
                 "--beta", "--k-half"]
_FLAGS = {
    "pnt-verify": ["--x-max", "--inject-corruption"],
    "osc-sum": ["--x", "--x-grid"] + _KERNEL_FLAGS,
    "bound": ["--x", "--x-grid", "--family", "--a", "--c", "--alpha", "--beta", "--T",
              "--delta-slack"],
    "psi-sum": ["--x", "--T", "--method"],
    "psi-half": ["--x", "--T"],
    "pte-construct": ["--n", "--m"],
    "pte-verify": ["--n", "--m", "--r-max"],
    "frm-degree": ["--r", "--r-max"],
    "lemma-sum": ["--x", "--T", "--k", "--u"],
    # no --kernel: the default p2 has no complex continuation, so no
    # drawn contour-check reaches the (seconds-long) quadrature
    "contour-check": ["--x", "--u", "--max-rel-err", "--c", "--form", "--T"],
    "exponent-fit": ["--x", "--x-grid"] + _KERNEL_FLAGS,
    "pigeonhole": ["--n", "--k"],
}
for _command, _flags in _FLAGS.items():
    _flags.append("--format")
    if _command in _PRECISION:
        _flags.append("--bits")
    if _command in _SIEVE:
        _flags.append("--sieve-cache")
_SWITCHES = {"--inject-corruption"}
_TOKENS = ["abc", "1/0", "-1", "0", "3/2", "1e30", "geom:1:2", "auto",
           "json", "exp_sqrt", "square", "custom", "main2", "direct"]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FLAGS) + [None]))
    value = st.one_of(st.sampled_from(_TOKENS), st.integers(-2, 12).map(str))
    argv = [] if command is None else [command]
    flags = draw(st.lists(st.sampled_from(_FLAGS.get(command, ["--x"])), max_size=5))
    flags += draw(st.lists(st.sampled_from(_UNKNOWN_FLAGS), max_size=1))
    for flag in draw(st.permutations(flags)):
        argv += [flag] if flag in _SWITCHES else [flag, draw(value)]
    return argv


@settings(deadline=None, max_examples=500)
@given(_argv())
def test_any_argv_exit_code_and_one_error_line(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        Path(work, "abc").write_text("{not json")  # for --sieve-cache abc
        cwd = os.getcwd()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)  # an escaping exception is a traceback
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    text = err.getvalue()
    if text:
        assert text.count("\n") == 1
        assert set(json.loads(text)) == {"error"}
