import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummerlat.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    main,
)
from kummerlat.pool import base_pool


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


H5 = {"name": "H5", "gram": [[2, 1], [1, -2]]}
A4M_GRAM = [[-2, 1, 0, 0], [1, -2, 1, 0], [0, 1, -2, 1], [0, 0, 1, -2]]
C5 = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
ID4 = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_help_keeps_one_line_per_subcommand(capsys):
    # the module docstring's subcommand table is printed as written
    import kummerlat.cli as cli

    table = [line for line in cli.__doc__.splitlines() if line.startswith("    ")]
    assert [line.split()[0] for line in table] == ["lattice", "isometry", "classify", "kummer",
                                                   "pool", "the"]
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    for line in table + ["Exit codes: 0 all checks pass, 1 verification failure or closed stdout, "
                         "2 input error."]:
        assert line in lines, line


def test_lattice_info(tmp_path, capsys):
    path = _write(tmp_path, "h5.json", H5)
    assert main(["lattice", "info", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "signature: (1, 1)" in out
    assert "Z/5" in out


def test_lattice_info_json(tmp_path, capsys):
    path = _write(tmp_path, "h5.json", H5)
    assert main(["lattice", "info", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == 2
    assert payload["disc"] == 5
    assert payload["p_elementary"]["5"] == {"elementary": True, "a": 1}


def test_lattice_info_unimodular(tmp_path, capsys):
    path = _write(tmp_path, "u.json", {"gram": [[0, 1], [1, 0]]})
    assert main(["lattice", "info", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "|det|: 1" in out
    assert "discriminant group: trivial" in out


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_lattice_info_takes_one_smith_form(tmp_path, capsys, monkeypatch, flags):
    # the discriminant form carries the group orders and the p-elementary flags,
    # and text mode prints from the payload the JSON mode dumps
    import kummerlat.lattices as lattices

    calls = []
    real = lattices.smith_normal_form

    def counted(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(lattices, "smith_normal_form", counted)
    path = _write(tmp_path, "t.json", {"gram": [[0, 5, 0], [5, 0, 0], [0, 0, -10]]})
    assert main(["lattice", "info", path] + flags) == EXIT_OK
    assert calls == [(3, 3)]
    out = capsys.readouterr().out
    if flags:
        payload = json.loads(out)
        assert payload["discriminant_group"] == [5, 5, 10]
        assert payload["p_elementary"]["5"] == {"elementary": False, "a": None}
    else:
        assert "discriminant group: Z/5 + Z/5 + Z/10" in out
        assert "p-elementary p=5: no" in out


# the standard lattices, then S and T of each classification table row; the
# generator q-values depend on the U and V of the Smith form, so the golden
# pins the presentation as well as the invariants
GOLDEN_LATTICES = ("U", "U(5)", "E8(-1)", "A4(-1)", "A4(-5)", "A4*(-5)", "H5", "<-10>")


def test_lattice_info_golden(tmp_path, capsys):
    from kummerlat.classification import table_rows
    from kummerlat.lattices import make_standard

    lattices = [make_standard(name) for name in GOLDEN_LATTICES]
    lattices += [lat for row in table_rows() for lat in (row.s, row.t)]
    entries = json.loads((GOLDEN / "lattice_info.json").read_text(encoding="utf-8"))
    assert [entry["job"] for entry in entries] == [
        {"name": lat.name, "gram": [list(row) for row in lat.gram.data]} for lat in lattices]
    assert len(entries) == 24
    texts = []
    for entry in entries:
        path = _write(tmp_path, "lat.json", entry["job"])
        assert main(["lattice", "info", path]) == EXIT_OK
        texts.append(capsys.readouterr().out)
        assert main(["lattice", "info", path, "--json"]) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(entry["payload"], indent=2) + "\n"
    assert "".join(texts) == (GOLDEN / "lattice_info.txt").read_text(encoding="utf-8")


def test_lattice_info_rejects_asymmetric(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"gram": [[0, 1], [2, 0]]})
    assert main(["lattice", "info", path]) == EXIT_INPUT_ERROR
    assert "symmetric" in capsys.readouterr().err


@pytest.mark.parametrize("argv, job", [
    (["lattice", "info"], {"gram": [[2, 1], [1, 2]], "name": [1]}),
    (["lattice", "info"], {"gram": [[2, 1], [1, 2]], "name": {"a": 1}}),
    (["isometry", "check"], {"gram": A4M_GRAM, "matrix": C5, "p": 5, "name": {"a": 1}}),
    (["isometry", "check"], {"gram": A4M_GRAM, "matrix": C5, "p": 5, "name": 5}),
], ids=["info-list", "info-object", "check-object", "check-int"])
def test_lattice_name_must_be_a_string_or_null(tmp_path, capsys, argv, job):
    path = _write(tmp_path, "job.json", job)
    for flags in ([], ["--json"]):
        assert main(argv + [path] + flags) == EXIT_INPUT_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and "'name' must be a string or null" in err
    path = _write(tmp_path, "job.json", dict(job, name=None))
    assert main(argv + [path]) == EXIT_OK


def test_isometry_check(tmp_path, capsys):
    path = _write(tmp_path, "iso.json", {"gram": A4M_GRAM, "matrix": C5, "p": 5})
    assert main(["isometry", "check", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "m = 1, a = 0, disc S = 5" in out
    assert "square: PASS" in out


def test_isometry_check_json(tmp_path, capsys):
    path = _write(tmp_path, "iso.json", {"gram": A4M_GRAM, "matrix": C5, "p": 5})
    assert main(["isometry", "check", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "p": 5,
        "m": 1,
        "a": 0,
        "disc_s": 5,
        "index": 1,
        "square_theorem": True,
        "unimodular_corollary": None,
    }


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_isometry_check_failing_square_exit_code(tmp_path, capsys, monkeypatch, flags):
    import kummerlat.isometries as isometries

    monkeypatch.setattr(isometries, "check_square_theorem", lambda inv, p: False)
    path = _write(tmp_path, "iso.json", {"gram": A4M_GRAM, "matrix": C5, "p": 5})
    assert main(["isometry", "check", path] + flags) == EXIT_VERIFICATION_FAILED
    if flags:
        expected = json.dumps({"p": 5, "m": 1, "a": 0, "disc_s": 5, "index": 1,
                               "square_theorem": False, "unimodular_corollary": None}, indent=2)
    else:
        expected = ("p = 5, m = 1, a = 0, disc S = 5, index = 1\n"
                    "square theorem: p^m * disc(S) = 25 square: FAIL\n"
                    "unimodular corollary: skipped (ambient not unimodular or p = 2)")
    assert capsys.readouterr().out == expected + "\n"


def test_isometry_check_rejects_identity(tmp_path, capsys):
    eye = [[1, 0], [0, 1]]
    path = _write(tmp_path, "iso.json", {"gram": [[0, 1], [1, 0]], "matrix": eye, "p": 2})
    assert main(["isometry", "check", path]) == EXIT_INPUT_ERROR
    assert "order must be prime, matrix != identity" in capsys.readouterr().err


def test_isometry_check_rejects_non_isometry(tmp_path, capsys):
    bad = [[1, 1], [0, 1]]
    path = _write(tmp_path, "iso.json", {"gram": [[0, 1], [1, 0]], "matrix": bad, "p": 2})
    assert main(["isometry", "check", path]) == EXIT_INPUT_ERROR
    assert "not an isometry" in capsys.readouterr().err


def test_isometry_check_golden(tmp_path, capsys):
    # every base pool entry of rank <= 12, text and --json output byte for byte
    entries = json.loads((GOLDEN / "isometry_check.json").read_text(encoding="utf-8"))
    names = [e.name for e in base_pool() if e.isometry.lattice.rank <= 12]
    assert [entry["job"]["name"] for entry in entries] == names
    for entry in entries:
        path = _write(tmp_path, "iso.json", entry["job"])
        assert main(["isometry", "check", path]) == entry["exit"]
        assert capsys.readouterr().out == entry["text"]
        assert main(["isometry", "check", path, "--json"]) == entry["exit"]
        assert capsys.readouterr().out == json.dumps(entry["payload"], indent=2) + "\n"


def test_lattice_info_at_the_rank_bound_stays_fast(tmp_path, capsys):
    # 2 I, the costliest sparse Gram matrix measured at the bound, ahead of A_n
    from kummerlat.lattices import MAX_RANK

    n = MAX_RANK
    gram = [[2 * (i == j) for j in range(n)] for i in range(n)]
    path = _write(tmp_path, "big.json", {"gram": gram})
    start = time.perf_counter()
    assert main(["lattice", "info", path, "--json"]) == EXIT_OK
    assert time.perf_counter() - start < 10
    payload = json.loads(capsys.readouterr().out)
    assert payload["rank"] == n and payload["discriminant_group"] == [2] * n


@pytest.mark.parametrize("command", ["lattice info", "isometry check"])
def test_rank_over_the_bound_exits_2_at_once(tmp_path, capsys, command):
    from kummerlat.lattices import MAX_RANK

    n = MAX_RANK + 1
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    path = _write(tmp_path, "big.json", {"gram": [[2 * x for x in row] for row in unit],
                                         "matrix": unit, "p": 2})
    start = time.perf_counter()
    assert main(command.split() + [path]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: 'gram' has {n} rows; the rank bound is {MAX_RANK}\n"


# the swap on U has order 2; a prime order p needs p - 1 <= rank = 2
HUGE_ORDER_JOB = {"gram": [[0, 1], [1, 0]], "matrix": [[0, 1], [1, 0]], "p": 10**18 + 3}


def test_isometry_check_rejects_order_beyond_rank(tmp_path, capsys):
    path = _write(tmp_path, "iso.json", HUGE_ORDER_JOB)
    start = time.perf_counter()
    assert main(["isometry", "check", path]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "exceeds rank + 1 = 3" in err


def test_isometry_check_order_bound_process_exit(tmp_path):
    path = _write(tmp_path, "iso.json", HUGE_ORDER_JOB)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "kummerlat.cli", "isometry", "check", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "exceeds rank + 1 = 3" in proc.stderr


@pytest.mark.parametrize("command", [["kummer", "--table"], ["lattice", "info"]],
                         ids=["kummer table", "lattice info"])
def test_closed_output_pipe_exits_1_quietly(tmp_path, command):
    # the reader is gone before the child writes (as after ``| head -1``): the
    # long table breaks the pipe in a print, the short report at the final flush
    if command[0] == "lattice":
        command = command + [_write(tmp_path, "h5.json", H5)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "kummerlat.cli", *command], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_VERIFICATION_FAILED
    assert proc.stderr == ""


def test_classify_verify(capsys):
    assert main(["classify", "verify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") >= 9
    assert "overall: PASS" in out


def test_classify_verify_json(capsys):
    assert main(["classify", "verify", "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert len(payload["rows"]) == 8
    assert payload["candidate_pairs_ok"] is True
    assert all(r["necessary_conditions_only"] for r in payload["rows"])


@pytest.mark.parametrize("argv, golden", [
    (["classify", "verify"], "classify_verify.txt"),
    (["classify", "verify", "--json"], "classify_verify.json"),
])
def test_classify_verify_golden(capsys, argv, golden):
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


def _corrupt_row_53(monkeypatch):
    # the (5, 3) row takes the T of the (1, 1) row
    from kummerlat import classification
    from kummerlat.classification import ClassificationRow, table_rows

    rows = table_rows()
    corrupted = rows[:7] + [ClassificationRow(5, 3, rows[7].s, rows[0].t)]
    monkeypatch.setattr(classification, "table_rows", lambda: corrupted)


def test_classify_verify_corrupted_rows_exit_code(capsys, monkeypatch):
    _corrupt_row_53(monkeypatch)
    assert main(["classify", "verify"]) == EXIT_VERIFICATION_FAILED
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_classify_verify_corrupted_rows_output(capsys, monkeypatch, flags):
    _corrupt_row_53(monkeypatch)
    assert main(["classify", "verify"] + flags) == EXIT_VERIFICATION_FAILED
    out = capsys.readouterr().out
    failing = ["rank_t", "sig_t_hyperbolic", "dt_order", "dt_group_is_z2_plus_ds"]
    if flags:
        golden = json.loads((GOLDEN / "classify_verify.json").read_text(encoding="utf-8"))
        first, last = golden["rows"][0], golden["rows"][7]
        last.update(T=first["T"], checks=dict(last["checks"], **dict.fromkeys(failing, False)),
                    values=dict(last["values"], **{k: first["values"][k]
                                                   for k in ("rank_t", "sig_t", "dt_orders")}))
        last["pass"] = golden["pass"] = False
        assert out == json.dumps(golden, indent=2) + "\n"
    else:
        golden = (GOLDEN / "classify_verify.txt").read_text(encoding="utf-8")
        assert out == golden.replace("row (m=5, a=3): PASS",
                                     f"row (m=5, a=3): FAIL  failing: {failing}").replace(
            "overall: PASS", "overall: FAIL")


def test_kummer_catalog_entry(capsys):
    assert main(["kummer", "--type", "0", "--variant", "id"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "value at q = 1: 108" in out


def test_kummer_negative_variant(capsys):
    assert main(["kummer", "--type", "8", "--variant", "-h"]) == EXIT_OK
    assert "value at q = 1: 5" in capsys.readouterr().out


def test_kummer_job_roundtrip(tmp_path, capsys):
    job = {"H": ID4, "b": [1, 0, 0, 0], "n": 3}
    path = _write(tmp_path, "job.json", job)
    assert main(["kummer", "--job", path, "--json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 27
    assert payload["corollary_check"] is True
    assert payload["poly_q"]["4"] == "27"


def test_kummer_table(capsys):
    assert main(["kummer", "--table"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert out.count("PASS") == 40  # 39 entries plus the overall line


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("source", ["job", "catalog"])
def test_kummer_failing_corollary_exit_code(tmp_path, capsys, monkeypatch, source, flags):
    import kummerlat.cli as cli

    monkeypatch.setattr(cli, "corollary_holds", lambda aut, result: False)
    if source == "job":
        argv = ["--job", _write(tmp_path, "job.json", {"H": ID4, "b": [1, 0, 0, 0], "n": 3})]
        text = "1*q^0 + 7*q^2 + -8*q^3 + 27*q^4 + -8*q^5 + 7*q^6 + 1*q^8", 27
        poly = {"0": "1", "2": "7", "3": "-8", "4": "27", "5": "-8", "6": "7", "8": "1"}
    else:
        argv = ["--type", "8", "--variant", "-h"]
        text = "1*q^0 + 2*q^2 + -2*q^3 + 3*q^4 + -2*q^5 + 2*q^6 + 1*q^8", 5
        poly = {"0": "1", "2": "2", "3": "-2", "4": "3", "5": "-2", "6": "2", "8": "1"}
    assert main(["kummer", *argv, *flags]) == EXIT_VERIFICATION_FAILED
    if flags:
        expected = json.dumps({"poly_q": poly, "value": text[1], "corollary_check": False},
                              indent=2)
    else:
        expected = f"L(psi^[n], q) = {text[0]}\nvalue at q = 1: {text[1]}\ncorollary check: FAIL"
    assert capsys.readouterr().out == expected + "\n"


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
def test_kummer_table_failing_entry_exit_code(capsys, monkeypatch, flags):
    import kummerlat.lefschetz as lefschetz

    # the first two catalog entries, the second with a wrong expected value
    (k0, v0, e0), (k1, v1, e1) = lefschetz.CATALOG_EXPECTED[:2]
    monkeypatch.setattr(lefschetz, "CATALOG_EXPECTED", ((k0, v0, e0), (k1, v1, e1 + 1)))
    assert main(["kummer", "--table", *flags]) == EXIT_VERIFICATION_FAILED
    if flags:
        expected = json.dumps([
            {"type": 0, "variant": "id", "value": 108, "expected": 108, "corollary_check": True,
             "pass": True},
            {"type": 0, "variant": "t_b", "value": 27, "expected": 28, "corollary_check": True,
             "pass": False},
        ], indent=2)
    else:
        expected = ("type 0 id                       value =  108 expected =  108 PASS\n"
                    "type 0 t_b                      value =   27 expected =   28 FAIL\n"
                    "overall: FAIL")
    assert capsys.readouterr().out == expected + "\n"


def test_kummer_table_loads_no_lattice_module():
    # the kummer commands compile only the Kummer side of the package
    code = ("import contextlib, io, json, sys\n"
            "from kummerlat.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['kummer', '--table']) == 0\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('kummerlat'))))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "kummerlat.lefschetz" in loaded
    lattice_side = {f"kummerlat.{m}" for m in ("lattices", "isometries", "classification", "pool")}
    assert loaded & lattice_side == set()


def test_kummer_catalog_json_golden(capsys):
    # full --json payload of every catalog entry, byte for byte
    entries = json.loads((GOLDEN / "kummer_catalog.json").read_text(encoding="utf-8"))
    assert len(entries) == 39
    for entry in entries:
        argv = ["kummer", "--type", str(entry["type"]), "--variant", entry["variant"], "--json"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(entry["payload"], indent=2) + "\n"


def test_kummer_catalog_golden_follows_the_catalog_order():
    from kummerlat.lefschetz import CATALOG_EXPECTED

    entries = json.loads((GOLDEN / "kummer_catalog.json").read_text(encoding="utf-8"))
    assert [(e["type"], e["variant"]) for e in entries] == [(k, v) for k, v, _ in CATALOG_EXPECTED]


def test_kummer_table_golden(capsys):
    assert main(["kummer", "--table"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "kummer_table.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("n", [0, -1, 61])
def test_kummer_job_rejects_bad_torsion(tmp_path, capsys, n):
    path = _write(tmp_path, "job.json", {"H": ID4, "b": [0, 0, 0, 0], "n": n})
    start = time.perf_counter()
    assert main(["kummer", "--job", path]) == EXIT_INPUT_ERROR
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "1..60" in err


@pytest.mark.parametrize("n", [0, -1, 61])
def test_kummer_job_bad_torsion_process_exit(tmp_path, n):
    path = _write(tmp_path, "job.json", {"H": ID4, "b": [0, 0, 0, 0], "n": n})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kummerlat.cli", "kummer", "--job", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


_KUMMER_JOB = '{"H": %s, "b": %s, "n": %s}'
_ISOMETRY_JOB = '{"gram": %s, "matrix": %s, "p": %%s}' % (A4M_GRAM, C5)


@pytest.mark.parametrize("command, text", [
    ("kummer", _KUMMER_JOB % (ID4, [0, 0, 0, 0], "1e400")),
    ("kummer", _KUMMER_JOB % (ID4, [0, 0, 0, 0], "3.5")),
    ("kummer", _KUMMER_JOB % (ID4, [0, 0, 0, 0], "true")),
    ("kummer", _KUMMER_JOB % (ID4, [0, 0, 0, 0], '"3"')),
    ("kummer", _KUMMER_JOB % (ID4, "[0.5, 0, 0, 0]", "3")),
    ("kummer", _KUMMER_JOB % (ID4, "[true, 0, 0, 0]", "3")),
    ("kummer", _KUMMER_JOB % (ID4, '["1", 0, 0, 0]', "3")),
    ("isometry", _ISOMETRY_JOB % "5.0"),
    ("isometry", _ISOMETRY_JOB % "true"),
    ("isometry", _ISOMETRY_JOB % '"5"'),
], ids=["n=1e400", "n=3.5", "n=true", "n=str", "b=0.5", "b=true", "b=str",
        "p=5.0", "p=true", "p=str"])
def test_job_fields_must_be_json_integers(tmp_path, capsys, command, text):
    path = tmp_path / "job.json"
    path.write_text(text, encoding="utf-8")
    argv = ["kummer", "--job", str(path)] if command == "kummer" else ["isometry", "check", str(path)]
    assert main(argv) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "integer" in err


@pytest.mark.parametrize("command, text, field", [
    ("kummer", _KUMMER_JOB % ('{"a": 1}', [0, 0, 0, 0], "3"), "'H'"),
    ("kummer", _KUMMER_JOB % ("5", [0, 0, 0, 0], "3"), "'H'"),
    ("kummer", _KUMMER_JOB % (ID4, "5", "3"), "'b'"),
    ("isometry", '{"gram": %s, "matrix": [1, 2], "p": 5}' % A4M_GRAM, "'matrix'"),
    ("isometry", '{"gram": 5, "matrix": %s, "p": 5}' % C5, "'gram'"),
], ids=["H=object", "H=5", "b=5", "matrix=flat", "gram=5"])
def test_job_matrix_fields_must_be_json_lists(tmp_path, capsys, command, text, field):
    path = tmp_path / "job.json"
    path.write_text(text, encoding="utf-8")
    argv = ["kummer", "--job", str(path)] if command == "kummer" else ["isometry", "check", str(path)]
    assert main(argv) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and field in err and "JSON list" in err


def test_kummer_missing_args(capsys):
    assert main(["kummer"]) == EXIT_INPUT_ERROR
    assert "either --type/--variant or --job" in capsys.readouterr().err


@pytest.mark.parametrize("argv, modes", [
    (["--table", "--type", "1", "--variant", "h"], "--table and --type/--variant"),
    (["--table", "--variant", "h"], "--table and --type/--variant"),
    (["--job", "job.json", "--type", "1", "--variant", "h"], "--job and --type/--variant"),
    (["--table", "--job", "job.json", "--json"], "--table and --job"),
    (["--type", "0", "--variant", "id", "--list-variants"], "--type/--variant and --list-variants"),
    (["--list-variants", "--table", "--job", "job.json"], "--table and --job and --list-variants"),
], ids=["table+type", "table+variant", "job+type", "table+job", "type+list", "three"])
def test_kummer_refuses_two_modes(capsys, argv, modes):
    # refused before any work: the job file is never opened
    assert main(["kummer", *argv]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: kummer takes one mode, got {modes}\n"


def test_kummer_bad_variant(capsys):
    assert main(["kummer", "--type", "3", "--variant", "zzz"]) == EXIT_INPUT_ERROR
    assert "unknown variant" in capsys.readouterr().err


def test_kummer_list_variants(capsys):
    assert main(["kummer", "--list-variants"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "type 8" in out
    # the whole listing, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "275a118053d75df57f52993bcf591b04fa34a03e790a3707e162582c7e708a28")


def test_kummer_list_variants_is_text_only(capsys):
    # the listing has no JSON form, so --json leaves it as it is
    assert main(["kummer", "--list-variants"]) == EXIT_OK
    text = capsys.readouterr().out
    assert main(["kummer", "--list-variants", "--json"]) == EXIT_OK
    assert capsys.readouterr().out == text


@pytest.mark.parametrize("argv, message", [
    (["--type", "3"], "--type requires --variant"),
    (["--variant", "h"], "--variant requires --type"),
], ids=["type", "variant"])
def test_kummer_type_and_variant_need_each_other(capsys, argv, message):
    assert main(["kummer", *argv]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", f"error: {message}; see kummer --list-variants\n")


def test_missing_file_is_input_error(capsys):
    assert main(["lattice", "info", "/does/not/exist.json"]) == EXIT_INPUT_ERROR
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["isometry", "check"], ["kummer", "--job"], ["lattice", "info"]],
                         ids=["isometry", "kummer", "lattice"])
def test_empty_path_is_missing_file(capsys, argv):
    # an empty path is a path given: kummer --job "" reads it like the others
    assert main(argv + [""]) == EXIT_INPUT_ERROR
    assert capsys.readouterr() == ("", "error: no such file: \n")


@pytest.mark.parametrize("argv", [["isometry", "check"], ["kummer", "--job"], ["lattice", "info"]],
                         ids=["isometry", "kummer", "lattice"])
def test_directory_path_is_input_error(tmp_path, capsys, argv):
    assert main(argv + [str(tmp_path)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith(f"error: cannot read {tmp_path}: ")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"gram": [[2]], "name": "\xff"}')
    assert main(["lattice", "info", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{path} is not UTF-8 text" in err


def test_invalid_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert main(["lattice", "info", str(path)]) == EXIT_INPUT_ERROR
    assert "invalid JSON" in capsys.readouterr().err


def _deep_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("argv", [["isometry", "check"], ["kummer", "--job"], ["lattice", "info"]],
                         ids=["isometry", "kummer", "lattice"])
def test_deeply_nested_json_is_input_error(tmp_path, capsys, argv):
    assert main(argv + [_deep_json(tmp_path)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "nested too deeply" in err


def test_deeply_nested_json_process_exit(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kummerlat.cli", "kummer", "--job", _deep_json(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_INPUT_ERROR
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "nested too deeply" in proc.stderr


@pytest.mark.parametrize("text", ['["H", "b", "n"]', '"gram matrix p"'], ids=["list", "string"])
@pytest.mark.parametrize("argv", [["isometry", "check"], ["kummer", "--job"], ["lattice", "info"]],
                         ids=["isometry", "kummer", "lattice"])
def test_non_object_json_is_input_error(tmp_path, capsys, argv, text):
    path = tmp_path / "job.json"
    path.write_text(text, encoding="utf-8")
    assert main(argv + [str(path)]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert str(path) in err and "top level must be a JSON object" in err


def test_pool_check_default(capsys):
    assert main(["pool", "check"]) == EXIT_OK
    assert capsys.readouterr().out == "pool size: 220, failures: 0\n"


def test_pool_check_rejects_empty_count(capsys):
    assert main(["pool", "check", "--count", "0"]) == EXIT_INPUT_ERROR
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --count must be at least 1, got 0\n"


def test_pool_check_rejects_count_over_the_bound():
    # an unbounded count once ran for minutes and past 1 GB before any output
    from kummerlat.cli import MAX_POOL_COUNT

    start = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "kummerlat.cli", "pool", "check", "--count",
                           str(MAX_POOL_COUNT + 1)], capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 5
    assert proc.returncode == EXIT_INPUT_ERROR and proc.stdout == ""
    assert proc.stderr == f"error: --count must be at most {MAX_POOL_COUNT}, got {MAX_POOL_COUNT + 1}\n"


def test_pool_check_failing_check_exit_code(monkeypatch, capsys):
    import kummerlat.isometries as isometries

    monkeypatch.setattr(isometries, "check_square_theorem", lambda inv, p: False)
    # a count below the size of the base pool checks the base pool alone
    assert main(["pool", "check", "--count", "1", "--seed", "7"]) == EXIT_VERIFICATION_FAILED
    lines = capsys.readouterr().out.splitlines()
    odd = [e for e in base_pool() if e.isometry.order != 2]
    assert [line.partition(":")[0] for line in lines[:-1]] == [f"FAIL {e.name}" for e in odd]
    assert all("['square']" in line for line in lines[:-1])
    assert lines[-1] == f"pool size: {len(base_pool())}, failures: {len(odd)}"


# --- fuzzed job files: any JSON value exits 0, 1 or 2, and an input error is one line ---

_ENTRIES = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.booleans(),
    st.none(),
    st.text(max_size=2),
    st.lists(st.integers(min_value=-2, max_value=2), max_size=2),
)
_SQUARE = st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
                       min_size=n, max_size=n))
# A + A^T is symmetric with an even diagonal, so it reaches the lattice checks past the shape
_SYMMETRIC_EVEN = _SQUARE.map(lambda a: [[x + y for x, y in zip(r, c)] for r, c in zip(a, zip(*a))])
_MATRICES = st.one_of(_SQUARE, _SYMMETRIC_EVEN, st.lists(st.lists(_ENTRIES, max_size=4), max_size=4), _ENTRIES)
_SCALARS = st.one_of(st.integers(min_value=-2, max_value=8), _ENTRIES)
_FIELDS = {
    "gram": _MATRICES,
    "name": st.one_of(st.text(max_size=3), _ENTRIES),
    "matrix": _MATRICES,
    "p": _SCALARS,
    "H": _MATRICES,
    "b": st.one_of(st.lists(_SCALARS, max_size=5), _ENTRIES),
    "n": _SCALARS,
}
_WELL_FORMED = {
    "lattice": [H5, {"gram": [[0, 5, 0], [5, 0, 0], [0, 0, -10]]}],
    "isometry": [{"gram": A4M_GRAM, "matrix": C5, "p": 5},
                 {"gram": [[0, 1], [1, 0]], "matrix": [[-1, 0], [0, -1]], "p": 2}],
    "kummer": [{"H": C5, "b": [1, 0, 2, 0], "n": 3}, {"H": ID4, "b": [0, 0, 0, 0], "n": 2}],
}
_ARGV = {"lattice": ["lattice", "info"], "isometry": ["isometry", "check"], "kummer": ["kummer", "--job"]}


def _jobs(command):
    """A well-formed job with each field kept or fuzzed, or any subset of fuzzed fields."""
    mutated = st.sampled_from(_WELL_FORMED[command]).flatmap(lambda job: st.fixed_dictionaries(
        {key: st.one_of(st.just(value), st.just(value), _FIELDS[key]) for key, value in job.items()}))
    fields = {key: _FIELDS[key] for key in _WELL_FORMED[command][0]}
    return st.one_of(mutated, st.fixed_dictionaries({}, optional=fields))


@pytest.mark.parametrize("command", sorted(_ARGV))
def test_fuzzed_job_files_exit_cleanly(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / "job.json"

    @settings(max_examples=150, deadline=None)
    @given(job=_jobs(command), as_json=st.booleans())
    def check(job, as_json):
        path.write_text(json.dumps(job), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(_ARGV[command] + [str(path)] + (["--json"] if as_json else []))
        assert time.perf_counter() - start < 5, job
        assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED, EXIT_INPUT_ERROR), job
        if code == EXIT_INPUT_ERROR:
            assert out.getvalue() == "", job
            assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: "), job
            assert "Traceback" not in err.getvalue(), job
        else:
            assert err.getvalue() == "", job

    check()
