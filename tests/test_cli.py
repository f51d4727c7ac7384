"""Exit codes, report documents, and input validation of the console entry point."""

import csv
import json
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

import lfverify
from lfverify.cli import main


def run_constants(tmp_path, *extra):
    out = tmp_path / "report.json"
    code = main(["constants", "--out", str(out), *extra])
    return code, json.loads(out.read_text())


def test_constants_document_shape(tmp_path):
    code, doc = run_constants(tmp_path)
    # the final negative constant misses its claimed bound, so the honest
    # exit status is failure even though 26 of 27 records pass
    assert code == 1
    assert doc["schema_version"] == "1"
    assert len(doc["constants"]) == 27
    by_name = {r["name"]: r for r in doc["constants"]}
    assert by_name["c11"]["pass"] is True
    assert abs(by_name["c11"]["computed"]["re"] - 3.61226) < 1e-5
    failed = [r["name"] for r in doc["constants"] if not r["pass"]]
    assert failed == ["c3_real"]
    assert doc["zeros"] is None
    assert doc["identities"] == []
    assert len(doc["notes"]) == 3
    assert doc["meta"]["quadrature_tol"] is None
    assert doc["meta"]["parameters"] == {}
    assert "timestamp" in doc["meta"]


def test_constants_tol_flag_is_refused(tmp_path):
    # the constants are one fixed Gauss-Legendre panel each; there is no tolerance
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--tol", "1e-8", "--out", str(tmp_path / "r.json")])
    assert exc.value.code == 2


def test_constants_stdout_json(capsys):
    code = main(["constants"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema_version"] == "1"


def test_constants_markdown(tmp_path):
    out = tmp_path / "report.md"
    code = main(["constants", "--format", "markdown", "--out", str(out)])
    assert code == 1
    text = out.read_text()
    assert text.startswith("# lfverify report")
    assert "| name | computed | claim | claimed | tolerance | pass |" in text
    assert text.count("| NO |") == 1
    assert "c3_real" in text
    footer = text.rstrip("\n").splitlines()[-1]
    assert footer.startswith("_generated ") and footer.endswith("_")
    datetime.fromisoformat(footer[len("_generated ") : -1])
    assert "tol" not in footer


def test_constants_markdown_shows_a_non_finite_imaginary_part_as_nan(tmp_path, monkeypatch):
    from lfverify import contradiction

    windows = contradiction.short_window_checks()
    windows["window6_1"] = complex(windows["window6_1"].real, math.nan)
    monkeypatch.setattr(contradiction, "short_window_checks", lambda: windows)
    out = tmp_path / "report.md"
    assert main(["constants", "--format", "markdown", "--out", str(out)]) == 1
    rows = [line for line in out.read_text().splitlines() if line.startswith("| window6_1 |")]
    assert len(rows) == 1
    assert rows[0].split(" | ")[1] == f"{windows['window6_1'].real:.10g}+nan*i"
    assert rows[0].endswith("| NO |")


def test_constants_bad_out_path():
    assert main(["constants", "--out", "/nonexistent-dir/x.json"]) == 2


def test_report_validates_against_packaged_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    import lfverify
    from pathlib import Path

    schema = json.loads(
        (Path(lfverify.__file__).parent / "report_schema.json").read_text()
    )
    _, doc = run_constants(tmp_path)
    jsonschema.validate(doc, schema)

    code = main(
        ["identities", "--max-n", "50", "--moduli", "3", "--out", str(tmp_path / "i.json")]
    )
    assert code == 0
    jsonschema.validate(json.loads((tmp_path / "i.json").read_text()), schema)

    argv = ["zeros", "--modulus", "5", "--t-max", "20", "--csv", str(tmp_path / "z.csv")]
    assert main(argv + ["--out", str(tmp_path / "z.json")]) == 0
    jsonschema.validate(json.loads((tmp_path / "z.json").read_text()), schema)


def test_identities_small_run(tmp_path):
    out = tmp_path / "identities.json"
    code = main(["identities", "--max-n", "300", "--moduli", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    names = [r["name"] for r in doc["identities"]]
    assert names == [
        "divisor_sum_mod3",
        "euler_product_mod3",
        "coefficient_bounds_mod3",
        "local_factor_cases",
        "local_factor_envelope",
    ]
    assert all(r["pass"] for r in doc["identities"])
    assert doc["constants"] == []
    assert doc["meta"]["parameters"] == {"max_n": 300, "moduli": [3]}


def test_identities_markdown_has_one_row_per_record(tmp_path, capsys):
    argv = ["identities", "--max-n", "300", "--moduli", "3"]
    assert main(argv + ["--out", str(tmp_path / "i.json")]) == 0
    records = json.loads((tmp_path / "i.json").read_text())["identities"]
    assert main(argv + ["--format", "markdown", "--out", "-"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("# lfverify report")
    table = text.split("## Identities\n\n", 1)[1].split("\n\n", 1)[0].splitlines()
    assert table[:2] == ["| name | max gap | pass |", "|---|---|---|"]
    assert table[2:] == [
        f"| {r['name']} | {r['max_gap']:.3e} | {'yes' if r['pass'] else 'NO'} |" for r in records
    ]


def test_identities_input_validation(tmp_path):
    assert main(["identities", "--max-n", "0"]) == 2
    assert main(["identities", "--max-n", "2000000"]) == 2
    assert main(["identities", "--moduli", "3,x"]) == 2
    assert main(["identities", "--moduli", ","]) == 2
    # no real primitive character mod 6
    assert main(["identities", "--max-n", "10", "--moduli", "6"]) == 2


def test_identities_modulus_limit(monkeypatch, capsys):
    # 10^9 + 7 has a real primitive character; building its 10^9-entry table
    # would not finish, so the entry is refused before any table is built
    from lfverify import characters

    build = characters.real_primitive_character

    def guarded(q):
        assert q <= 1000, f"built the table mod {q}"
        return build(q)

    monkeypatch.setattr(characters, "real_primitive_character", guarded)
    assert main(["identities", "--max-n", "10", "--moduli", "3,1000000007"]) == 2
    assert "at most 1000" in capsys.readouterr().err
    assert main(["identities", "--max-n", "10", "--moduli", "1001"]) == 2


def test_identities_refuses_repeated_moduli(monkeypatch, capsys):
    # a repeated modulus would give its rows twice under one name
    def unreachable(max_n, moduli):
        raise AssertionError("checked a repeated modulus")

    monkeypatch.setattr(lfverify.cli, "_identity_rows", unreachable)
    assert main(["identities", "--max-n", "10", "--moduli", "3,3"]) == 2
    assert "repeats 3" in capsys.readouterr().err
    assert main(["identities", "--max-n", "10", "--moduli", "4,5,8,5,4"]) == 2
    assert "repeats 4, 5" in capsys.readouterr().err


def test_identities_checks_coefficient_bounds_up_to_max_n(monkeypatch):
    from lfverify import characters, cli

    checked = []
    margin = characters.coefficient_bound_margin

    def spy(n_max, chi):
        checked.append(n_max)
        return margin(n_max, chi)

    monkeypatch.setattr(characters, "coefficient_bound_margin", spy)
    monkeypatch.setattr(
        characters, "identity_810_gaps", lambda ns, chis: np.zeros((len(chis), len(ns)))
    )
    rows = {r.name: r.passed for r in cli._identity_rows(20_000, [3])}
    assert checked == [20_000]
    assert rows["coefficient_bounds_mod3"]


def test_identity_rows_of_a_joint_run_equal_each_modulus_run_alone():
    # the moduli of one run share their character-free tables; no value moves
    from lfverify import cli

    moduli = [3, 4, 5, 8]
    joint = cli._identity_rows(20_000, moduli)
    alone = [cli._identity_rows(20_000, [q]) for q in moduli]
    assert joint[: 3 * len(moduli)] == [row for rows in alone for row in rows[:3]]
    for rows in alone:
        assert joint[3 * len(moduli) :] == rows[3:]


def test_identity_rows_hold_the_gaps_in_chunks_of_n(monkeypatch):
    # 9000 gaps over 3 moduli: chunks of 3000 n, the seventh 2000 long
    from lfverify import characters, cli

    def hexed(rows):
        return [(r.name, r.computed.real.hex(), r.passed) for r in rows]

    whole = hexed(cli._identity_rows(20_000, [3, 4, 5]))
    sizes = []
    gaps = characters.identity_810_gaps

    def spy(ns, chis):
        sizes.append(len(ns))
        return gaps(ns, chis)

    monkeypatch.setattr(characters, "identity_810_gaps", spy)
    monkeypatch.setattr(cli, "_GAP_ELEMENTS", 9_000)
    assert hexed(cli._identity_rows(20_000, [3, 4, 5])) == whole
    assert sizes == [3_000] * 6 + [2_000]


def test_identities_mod7_fails_on_the_euler_product_alone(tmp_path):
    # the Euler-product gate has no tail estimate: at its n <= 10^5 cutoff
    # the gap is 1.13e-4 against 1e-4, a known shortfall kept as a failing row
    out = tmp_path / "id7.json"
    assert main(["identities", "--moduli", "7", "--out", str(out)]) == 1
    rows = json.loads(out.read_text())["identities"]
    assert [row["name"] for row in rows if not row["pass"]] == ["euler_product_mod7"]


@pytest.mark.parametrize(
    "residue, value, verdicts",
    [
        (None, None, (True, True, True)),
        (2, 1.0, (True, False, True)),
        (2, 0.0, (True, False, True)),
        (1, -1.0, (True, False, False)),
    ],
    ids=["honest", "chi(2)=1", "chi(2)=0", "chi(1)=-1"],
)
def test_identity_rows_under_a_corrupted_character(monkeypatch, residue, value, verdicts):
    # one value of the real character mod 5 is corrupted; the divisor-pair
    # row passes under every corruption, because its identity holds for
    # arbitrary real values at the residues: it checks Pi and the divisor
    # enumeration, not the character
    from lfverify import characters, cli

    honest = characters.real_primitive_character

    def corrupted(q):
        chi = honest(q)
        if q != 5 or residue is None:
            return chi
        values = list(chi.values)
        values[residue] = complex(value)
        return characters.DirichletCharacter(q, tuple(values), chi.parity, chi.real, chi.conductor)

    monkeypatch.setattr(characters, "real_primitive_character", corrupted)
    rows = {r.name: r.passed for r in cli._identity_rows(10_000, [5])}
    names = ("divisor_sum_mod5", "euler_product_mod5", "coefficient_bounds_mod5")
    assert tuple(rows[name] for name in names) == verdicts
    assert all(ok for name, ok in rows.items() if name not in names)


def test_zeros_happy_path(tmp_path, capsys):
    csv_path = tmp_path / "z3.csv"
    code = main(["zeros", "--modulus", "3", "--t-max", "12", "--csv", str(csv_path)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("2 zeros ->")
    assert "below floor" in line
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert abs(float(rows[0]["gamma"]) - 8.039737) < 1e-5
    assert abs(float(rows[1]["gamma"]) - 11.249206) < 1e-5


def test_zeros_json_report(tmp_path):
    csv_path = tmp_path / "z4.csv"
    out = tmp_path / "z4.json"
    code = main(
        [
            "zeros", "--modulus", "4", "--t-max", "15",
            "--csv", str(csv_path), "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["zeros"]["table"] == str(csv_path)
    params = doc["meta"]["parameters"]
    assert params["modulus"] == 4
    assert params["alpha_hat"] > 0


def _zeros_checks(parity_count=0):
    return [
        {"name": "c_star_floor", "count": 0, "pass": True},
        {"name": "c_star_computable", "count": 0, "pass": True},
        {"name": "c_star_parity", "count": parity_count, "pass": parity_count == 0},
    ]


def test_zeros_report_holds_the_counts_and_the_checks(tmp_path):
    # the 2 zeros within 3 alpha_hat of T = 60 have neighbours above T that
    # the list cannot see, so the parity row compares 25 of the 27
    csv_path, out = tmp_path / "z.csv", tmp_path / "z.json"
    argv = ["zeros", "--modulus", "5", "--t-max", "60", "--csv", str(csv_path), "--out", str(out)]
    assert main(argv) == 0
    assert json.loads(out.read_text())["zeros"] == {
        "table": str(csv_path),
        "found": 27,
        "flagged": 0,
        "eligible": 3,
        "compared": 25,
        "checks": _zeros_checks(),
    }


def test_zeros_parity_row_fails_on_a_dropped_zero(tmp_path, monkeypatch, capsys):
    """Zero 14 of L(s, chi) mod 5 below T = 60 dropped from the scan flips the
    parity that the list predicts for c* at one earlier zero.  The fixed
    alpha_hat keeps every c*, and the floor audit still passes."""
    from lfverify import lfunc

    find = lfunc.find_zeros

    def without_zero_14(*args):
        scan = find(*args)
        return lfunc.ScanResult(scan.zeros[:14] + scan.zeros[15:], scan.flagged, scan.panels)

    csv_path, out = tmp_path / "z.csv", tmp_path / "z.json"
    argv = ["zeros", "--modulus", "5", "--t-max", "60", "--alpha-hat", "1"]
    argv += ["--csv", str(csv_path), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    monkeypatch.setattr(lfunc, "find_zeros", without_zero_14)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == f"26 zeros -> {csv_path}; alpha_hat=1, 3 eligible, 0 below floor\n"
    assert captured.err == (
        "error: 1 zero(s) whose c* sign disagrees with the parity of the zeros above\n"
    )
    zeros = json.loads(out.read_text())["zeros"]
    assert (zeros["found"], zeros["compared"]) == (26, 24)
    assert zeros["checks"] == _zeros_checks(parity_count=1)


def test_zeros_warns_of_a_flagged_interval_and_still_passes(tmp_path, monkeypatch, capsys):
    """A flagged interval is a warning on stderr and a count in the report, not a failure."""
    from lfverify import lfunc

    find = lfunc.find_zeros

    def one_flagged(*args):
        scan = find(*args)
        return lfunc.ScanResult(scan.zeros, ((30.0, 30.04),), scan.panels)

    monkeypatch.setattr(lfunc, "find_zeros", one_flagged)
    csv_path, out = tmp_path / "z.csv", tmp_path / "z.json"
    argv = ["zeros", "--modulus", "5", "--t-max", "60", "--csv", str(csv_path), "--out", str(out)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "warning: 1 flagged interval(s), possible unresolved double zeros\n"
    )
    assert captured.out.startswith("27 zeros")
    assert json.loads(out.read_text())["zeros"]["flagged"] == 1


def test_zeros_parity_row_skips_a_shift_inside_a_bracket(tmp_path, capsys):
    # two zeros below T = 10 mod 5: the default alpha_hat is half their gap,
    # so the first zero's second shift lands on the second zero, where M
    # and so c* (-6.2e-15 here) are rounding noise; that zero is not compared
    csv_path, out = tmp_path / "z.csv", tmp_path / "z.json"
    argv = ["zeros", "--modulus", "5", "--t-max", "10", "--csv", str(csv_path), "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    zeros = json.loads(out.read_text())["zeros"]
    assert (zeros["found"], zeros["compared"]) == (2, 0)
    assert zeros["checks"] == _zeros_checks()


def test_zeros_empty_segment(tmp_path, capsys):
    csv_path = tmp_path / "empty.csv"
    code = main(["zeros", "--modulus", "4", "--t-max", "0.01", "--csv", str(csv_path)])
    assert code == 0
    assert capsys.readouterr().out.startswith("0 zeros")
    with open(csv_path, newline="") as fh:
        assert list(csv.DictReader(fh)) == []


def test_zeros_window_without_zeros(tmp_path, capsys):
    # the first zero of L(s, chi_4) is at 6.02, so the scan has no bracket
    # to refine and the run reports 0 zeros with exit 0
    csv_path = tmp_path / "z4.csv"
    assert main(["zeros", "--modulus", "4", "--t-max", "5", "--csv", str(csv_path)]) == 0
    assert capsys.readouterr().out.startswith("0 zeros")


def test_zeros_input_validation(tmp_path):
    assert main(["zeros", "--modulus", "0", "--t-max", "10"]) == 2
    assert main(["zeros", "--modulus", "6", "--t-max", "10"]) == 2
    assert main(["zeros", "--modulus", "1009", "--t-max", "10"]) == 2
    assert main(["zeros", "--modulus", "4", "--t-max", "-1"]) == 2
    assert main(["zeros", "--modulus", "4", "--t-max", "1000.5"]) == 2
    assert main(["zeros", "--modulus", "4", "--t-max", "10", "--step", "0.5"]) == 2
    assert main(["zeros", "--modulus", "4", "--t-max", "10", "--char-index", "5"]) == 2
    # nan would pass a bare positivity test; inf and 1e300 overflow the kernel's shift
    for alpha_hat in ("-1", "nan", "inf", "1e300", "1001"):
        assert (
            main(["zeros", "--modulus", "4", "--t-max", "10", "--alpha-hat", alpha_hat]) == 2
        )
    assert (
        main(
            ["zeros", "--modulus", "4", "--t-max", "10", "--csv", "/nonexistent-dir/z.csv"]
        )
        == 2
    )


@pytest.mark.parametrize("step", ("1e-300", "5e-324", "1e-9"))
def test_zeros_refuses_a_step_past_the_grid_cap(tmp_path, capsys, step):
    # 1e-300 and 5e-324 ended in a traceback and exit 1; 1e-9 asks for 10^10
    # grid points to T = 10; each is a scan refused before its grid, exit 2
    from lfverify import lfunc  # noqa: F401  (its import is not the scan's memory)

    argv = ["zeros", "--modulus", "5", "--t-max", "10", "--step", step]
    tracemalloc.start()
    try:
        assert main(argv + ["--csv", str(tmp_path / "z.csv")]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "error: scan failed: step" in capsys.readouterr().err
    assert peak < 2**20, peak
    assert not (tmp_path / "z.csv").exists()


def test_zeros_step_default_is_the_scan_default(monkeypatch):
    # the parser states the default apart, since parsing loads no numpy
    from lfverify import cli, lfunc

    seen = []
    monkeypatch.setattr(cli, "cmd_zeros", lambda args: seen.append(args.step) or 0)
    assert main(["zeros", "--modulus", "5", "--t-max", "10"]) == 0
    assert seen == [lfunc._STEP]


def _unwritable(path):
    return f"cannot write {path}: [Errno 2] No such file or directory: '{path}'"


_ZEROS4 = ["zeros", "--modulus", "4", "--t-max", "10"]
_T_MAX = "--t-max must be positive and at most 1000"
_ALPHA = "--alpha-hat must be positive and at most 1000"
_MODULI = "--moduli entries must be at most 1000"
# every refusal: its argv, its one stderr line after "error: ", and its stdout
_REFUSALS = [
    (["identities", "--max-n", "0"], "--max-n must be between 1 and 10^6", ""),
    (["identities", "--max-n", "2000000"], "--max-n must be between 1 and 10^6", ""),
    (["identities", "--moduli", "3,x"], "cannot parse --moduli '3,x'", ""),
    (["identities", "--moduli", ","], "--moduli is empty", ""),
    (["identities", "--max-n", "10", "--moduli", "6"], "no real primitive character mod 6", ""),
    (["identities", "--max-n", "10", "--moduli=-4"], "no real primitive character mod -4", ""),
    (["identities", "--max-n", "10", "--moduli", "3,1000000007"], _MODULI, ""),
    (["identities", "--max-n", "10", "--moduli", "1001"], _MODULI, ""),
    (["identities", "--max-n", "10", "--moduli", "3,3"], "--moduli repeats 3", ""),
    (["identities", "--max-n", "10", "--moduli", "4,5,8,5,4"], "--moduli repeats 4, 5", ""),
    (
        ["identities", "--max-n", "10", "--moduli", "3", "--out", "missing/r.json"],
        _unwritable("missing/r.json"),
        "",
    ),
    (["zeros", "--modulus", "0", "--t-max", "10"], "--modulus must be between 1 and 1000", ""),
    (["zeros", "--modulus", "6", "--t-max", "10"], "no primitive characters mod 6", ""),
    (["zeros", "--modulus", "1009", "--t-max", "10"], "--modulus must be between 1 and 1000", ""),
    (["zeros", "--modulus", "4", "--t-max", "-1"], _T_MAX, ""),
    (["zeros", "--modulus", "4", "--t-max", "1000.5"], _T_MAX, ""),
    (_ZEROS4 + ["--step", "0.5"], "--step must be positive and at most 0.05", ""),
    (
        ["zeros", "--modulus", "5", "--t-max", "10", "--step", "1e-9"],
        "scan failed: step 1e-09 cuts the scan into more than 1,000,000 steps",
        "",
    ),
    (_ZEROS4 + ["--char-index", "5"], "--char-index out of range (0..0 for modulus 4)", ""),
    *[(_ZEROS4 + ["--alpha-hat", a], _ALPHA, "") for a in ("-1", "nan", "inf", "1e300", "1001")],
    (_ZEROS4 + ["--csv", "missing/z.csv"], _unwritable("missing/z.csv"), ""),
    (
        _ZEROS4 + ["--csv", "z.csv", "--out", "missing/r.json"],
        _unwritable("missing/r.json"),
        "1 zeros -> z.csv; alpha_hat=1, 0 eligible, 0 below floor\n",
    ),
    (["constants", "--out", "missing/x.json"], _unwritable("missing/x.json"), ""),
]


@pytest.mark.parametrize(
    "argv, message, stdout", _REFUSALS, ids=[" ".join(argv) for argv, _, _ in _REFUSALS]
)
def test_each_refusal_is_one_error_line_and_exit_2(
    tmp_path, monkeypatch, capsys, argv, message, stdout
):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == stdout
    # no report anywhere; only the zero table written before the unwritable --out
    assert sorted(os.listdir(tmp_path)) == (["z.csv"] if stdout else [])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "--out", "/dev/full"],
        ["identities", "--max-n", "10", "--moduli", "3", "--out", "/dev/full"],
        _ZEROS4 + ["--csv", "/dev/full"],
        _ZEROS4 + ["--csv", "z.csv", "--out", "/dev/full"],
    ],
)
def test_a_failed_write_names_its_path(tmp_path, monkeypatch, capsys, argv):
    # the open succeeds and the write or close fails with an OSError that names no file
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /dev/full: [Errno 28] ") and err.count("\n") == 1


# the table of `zeros --modulus 720 --t-max 20 --char-index 47` (gamma, c*): its
# CSV's sha256 begins 02032953 under OpenBLAS's SkylakeX, Prescott and
# Sandybridge kernels; under Haswell and Zen the first c* ends in ...527
_ZEROS_720 = (
    (1.512720862018, 0.00154248038526), (1.955308971228, 6.23972345754),
    (3.655775350650, 0.483178240092), (4.310995857246, -0.567171985406),
    (5.524164256912, 0.372036715837), (6.311841034882, -0.854188219987),
    (7.389430959523, -0.186374584848), (8.373096341822, 0.585652034366),
    (9.046695200381, -0.995853998515), (10.083936733337, -0.293878822736),
    (11.045657566555, -0.00447113507509), (11.947373787606, 0.449832843511),
    (12.419610739941, 1.4304359767), (13.828481977080, 0.0350389955976),
    (14.348419468693, 0.127897800268), (15.207703954875, 0.500035180486),
    (16.033357045501, -0.321214988317), (17.162598239629, -0.141935186617),
    (17.574642179977, -0.733820214868), (18.722629871413, 0.346647555364),
    (19.208873047975, -1.13552965297),
)


def test_zeros_mod_720_scans_its_last_primitive_character(tmp_path, capsys):
    # 720 = 2^4 3^2 5 has 48 primitive characters: index 47 scans 21 zeros to
    # T = 20, and index 48 is refused with exit 2; gammas move by at most
    # 5.7e-14 and c* by 4.4e-12 relative between BLAS kernels (README)
    argv = ["zeros", "--modulus", "720", "--t-max", "20", "--csv", str(tmp_path / "z.csv")]
    assert main(argv + ["--char-index", "47"]) == 0
    assert capsys.readouterr().out.startswith("21 zeros ")
    with open(tmp_path / "z.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(_ZEROS_720)
    for row, (gamma, c_star) in zip(rows, _ZEROS_720):
        assert abs(float(row["gamma"]) - gamma) <= 1e-12, row
        assert abs(float(row["c_star"]) - c_star) <= 1e-10 * abs(c_star), row
    assert main(argv + ["--char-index", "48"]) == 2


def test_argparse_guards():
    with pytest.raises(SystemExit):
        main([])
    with pytest.raises(SystemExit):
        main(["constants", "--format", "yaml"])


def test_the_module_runs_as_a_script():
    # `python -m lfverify.cli` reaches main through the __main__ guard, and
    # its exit status is main's return value
    src = str(Path(lfverify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "lfverify.cli", "identities", "--max-n", "100", "--moduli", "3",
         "--out", "-"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = {row["name"]: row for row in json.loads(proc.stdout)["identities"]}
    assert rows["divisor_sum_mod3"]["pass"] is True


_COLD_START =textwrap.dedent(
    """
    import json, sys

    def slow_modules():
        return sorted(
            m
            for m in sys.modules
            if m in ("scipy", "numpy.ma", "numpy.polynomial") or m.startswith("scipy.")
        )

    from lfverify.cli import main

    seen = {"import": (None, slow_modules())}
    for argv in json.loads(sys.argv[1]):
        code = main(argv)
        seen[argv[0]] = (code, slow_modules())
    print(json.dumps(seen))
    """
)


def test_no_command_loads_scipy(tmp_path):
    """A fresh interpreter runs every command without importing scipy, numpy.ma or numpy.polynomial."""
    commands = [
        ["constants", "--out", str(tmp_path / "c.json")],
        ["identities", "--max-n", "100", "--out", str(tmp_path / "i.json")],
        ["zeros", "--modulus", "5", "--t-max", "20", "--csv", str(tmp_path / "z.csv")],
    ]
    src = str(Path(lfverify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen == {
        "import": [None, []],
        "constants": [1, []],
        "identities": [0, []],
        "zeros": [0, []],
    }


_STDLIB_LOADS = textwrap.dedent(
    """
    import json, sys

    def loaded():
        return sorted(m for m in ("csv", "dataclasses", "inspect") if m in sys.modules)

    from lfverify.cli import main

    seen = {"import": loaded()}
    for argv in json.loads(sys.argv[1]):
        main(argv)
        seen[argv[0]] = loaded()
    print(json.dumps(seen))
    """
)


def test_commands_load_no_dataclasses_and_constants_no_inspect_or_csv(tmp_path):
    """A fresh interpreter imports the CLI and runs `constants` without dataclasses,
    inspect or csv, and `identities` and `zeros` without dataclasses or csv (numpy
    itself imports inspect, and `zeros` joins its table's rows itself)."""
    commands = [
        ["constants", "--out", str(tmp_path / "c.json")],
        ["identities", "--max-n", "100", "--out", str(tmp_path / "i.json")],
        ["zeros", "--modulus", "5", "--t-max", "20", "--csv", str(tmp_path / "z.csv")],
    ]
    src = str(Path(lfverify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _STDLIB_LOADS, json.dumps(commands)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seen = json.loads(proc.stdout.splitlines()[-1])
    assert seen["import"] == []
    assert seen["constants"] == []
    for command in ("identities", "zeros"):
        assert "dataclasses" not in seen[command]
        assert "csv" not in seen[command]


_ONE_COMMAND = textwrap.dedent(
    """
    import json, sys

    argv, block_numpy = json.loads(sys.argv[1])
    if block_numpy:
        sys.modules["numpy"] = None  # any import of numpy now raises ImportError

    from lfverify.cli import main

    code = main(argv)
    print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("lfverify."))]))
    """
)


def _run_fresh(argv, block_numpy=False):
    """Exit code and loaded lfverify submodules of one command in a fresh interpreter."""
    src = str(Path(lfverify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_COMMAND, json.dumps([argv, block_numpy])],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    return code, {m.split(".")[1] for m in loaded}


def test_each_command_loads_only_what_it_runs(tmp_path):
    # constants runs without numpy: the quadrature is plain Python
    out = tmp_path / "c.json"
    code, loaded = _run_fresh(["constants", "--out", str(out)], block_numpy=True)
    assert code == 1
    failed = [r["name"] for r in json.loads(out.read_text())["constants"] if not r["pass"]]
    assert failed == ["c3_real"]
    assert loaded == {"cli", "contradiction", "kernels", "numerics"}

    _, loaded = _run_fresh(["identities", "--max-n", "100", "--out", str(tmp_path / "i.json")])
    assert not loaded & {"contradiction", "kernels"}

    argv = ["zeros", "--modulus", "5", "--t-max", "20", "--csv", str(tmp_path / "z.csv")]
    _, loaded = _run_fresh(argv)
    assert not loaded & {"contradiction", "eulerprod"}


def test_zeros_unaudited_eligible_zero_fails(tmp_path, monkeypatch, capsys):
    """An eligible zero without a triple-product ratio is a failed audit."""
    from lfverify import cli, lfunc

    batch = lfunc.c_star

    def one_blank(psi, gammas, alpha_hat):
        ratio, m_abs, residue = batch(psi, gammas, alpha_hat)
        eligible = np.flatnonzero(np.diff(gammas) > cli._ELIGIBILITY_FACTOR * alpha_hat)
        ratio = ratio.copy()
        ratio[eligible[0]] = np.nan
        return ratio, m_abs, residue

    argv = ["zeros", "--modulus", "5", "--t-max", "60", "--csv", str(tmp_path / "z.csv")]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(lfunc, "c_star", one_blank)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "error: 1 eligible zero(s) without a computable ratio" in captured.err
    assert captured.out.startswith("27 zeros")


def test_zeros_audit_fails_when_m_prime_flips_sign(tmp_path, monkeypatch, capsys):
    """A sign-flipped M' row negates every c*, so each eligible zero falls below the floor."""
    from lfverify import lfunc

    line = lfunc._m_line

    def flipped(theta, t, cols=lfunc._ZERO_COL, ds=False):
        out = line(theta, t, cols, ds)
        # the row contract: M, and with ds M', over the points t by cols
        assert out.shape == (1 + ds, len(t) * len(cols))
        if ds:
            out[1] = -out[1]
        return out

    csv_path = tmp_path / "z.csv"
    argv = ["zeros", "--modulus", "5", "--t-max", "60", "--csv", str(csv_path)]
    assert main(argv) == 0
    assert capsys.readouterr().out.endswith("3 eligible, 0 below floor\n")
    honest = csv_path.read_text().splitlines()
    monkeypatch.setattr(lfunc, "_m_line", flipped)
    assert main(argv) == 1
    assert capsys.readouterr().out.endswith("3 eligible, 3 below floor\n")
    # the scan reads no M', so the zeros stay; every c* changes sign exactly
    for a, b in zip(honest[1:], csv_path.read_text().splitlines()[1:], strict=True):
        (gamma, radius, c_star, gap), flip = a.split(","), b.split(",")
        assert flip == [gamma, radius, c_star[1:] if c_star[0] == "-" else "-" + c_star, gap]


def test_local_factor_cases_checks_every_case_eulerprod_gives_a_value(monkeypatch):
    # eulerprod alone decides where a case has no value: of the 144 zero-shift
    # (case, p, v) calls, A6 at v = 0 and L162 at v = 1, p = 2 refuse, and the
    # other 137 feed the row, so a new refusal cannot quietly shrink it; the
    # envelope row takes every case at its five primes and v = -1, 1
    from lfverify import cli, eulerprod
    from lfverify.numerics import DomainError

    check = eulerprod.check_local_identity
    calls, shifted, refused = [], [], []

    def spy(case, params):
        key = (case, round(1.0 / params.u), params.v)
        (shifted if any(params.betas) else calls).append(key)
        try:
            return check(case, params)
        except DomainError:
            refused.append(key)
            raise

    monkeypatch.setattr(eulerprod, "check_local_identity", spy)
    cli._identity_rows(10, [5])
    primes = (2, 3, 5, 7, 11, 13)
    assert sorted(calls) == sorted(
        (case, p, v) for case in eulerprod.IDENTITY_CASES for p in primes for v in (-1, 0, 1)
    )
    assert sorted(refused) == sorted([("A6", p, 0) for p in primes] + [("L162", 2, 1)])
    assert len(calls) - len(refused) == 137
    large = (1009, 2003, 4001, 7919, 9973)
    assert sorted(shifted) == sorted(
        (case, p, v) for case in eulerprod.IDENTITY_CASES for p in large for v in (-1, 1)
    )


@pytest.mark.parametrize("scale, passed", ((1 + 1e-9, False), (1 + 1e-13, True)))
def test_local_factor_cases_under_a_scaled_exact_value(monkeypatch, scale, passed):
    # A2's exact value scaled: the row's honest gap is 8.9e-16 against its
    # 1e-12 gate, so a relative error of 1e-9 flips it and one of 1e-13 does not
    from lfverify import cli, eulerprod

    case = eulerprod._CASES["A2"]
    monkeypatch.setitem(
        eulerprod._CASES, "A2", case[:5] + (lambda u, v: case[5](u, v) * scale,)
    )
    rows = {r.name: (r.computed.real, r.passed) for r in cli._identity_rows(10, [5])}
    gap, ok = rows["local_factor_cases"]
    print(f"\nlocal_factor_cases at a scale of 1 + {scale - 1:.0e}: gap {gap:.3e}")
    assert ok is passed
    assert all(ok for name, (_, ok) in rows.items() if name != "local_factor_cases")


@pytest.mark.parametrize("factor, passed", ((1.01, False), (0.99, True)))
def test_local_factor_envelope_under_an_error_at_its_largest_prime(monkeypatch, factor, passed):
    # an error of factor x the envelope bound (8.7e-5 at p = 9973) added to
    # A1's exact value there alone; A1's honest gap there is 5e-11 and the
    # row's worst, A6 at p = 1009, is 6.5e-5 against 6.5e-4
    from lfverify import cli, eulerprod

    p = 9973
    bound = 10.0 * 3e-3 * math.pi * math.log(p) / p
    case = eulerprod._CASES["A1"]

    def value(u, v):
        return case[5](u, v) + (factor * bound if round(1.0 / u) == p else 0.0)

    monkeypatch.setitem(eulerprod._CASES, "A1", case[:5] + (value,))
    rows = {r.name: (r.computed.real, r.passed) for r in cli._identity_rows(10, [5])}
    gap, ok = rows["local_factor_envelope"]
    print(f"\nlocal_factor_envelope with {factor} x {bound:.3e} at p = {p}: gap {gap:.3e}")
    assert ok is passed
    assert all(ok for name, (_, ok) in rows.items() if name != "local_factor_envelope")


_INSTALL_TRACER = textwrap.dedent(
    """
    import sys

    sys.path.insert(0, sys.argv[1])
    import tracing

    tracing.install(tracing.Tracer())
    """
)


def test_benchmark_tracer_finds_every_name_it_patches():
    # the traced benchmark wraps package names found by getattr; a deleted
    # or renamed name would break only its traced runs
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    src = str(Path(lfverify.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL_TRACER, bench],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
