"""Command-line interface: report schema, exit codes, determinism."""

import contextlib
import json

import pytest

from fermatosc import cli, tower
from fermatosc.cli import main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


def test_points_sextactic_d3(capsys):
    code, rep = run_json(["points", "--degree", "3", "--kind", "sextactic"],
                         capsys)
    assert code == 0
    assert rep["schema"] == 1
    assert rep["status"] == "ok"
    assert rep["payload"]["sextactic_count"] == 27
    assert len(rep["payload"]["sextactic"]) == 27
    labels = {(s["cluster"], s["j"], s["k"])
              for s in rep["payload"]["sextactic"]}
    assert len(labels) == 27


def test_points_inflection(capsys):
    code, rep = run_json(["points", "--degree", "4", "--kind", "inflection"],
                         capsys)
    assert code == 0
    assert rep["payload"]["inflection_count"] == 12


def test_conic_report(capsys):
    code, rep = run_json(["conic", "--degree", "4", "--j", "1", "--k", "3"],
                         capsys)
    assert code == 0
    pay = rep["payload"]
    assert pay["contact_order"] == 6
    assert pay["closed_vs_explicit_proportional"]
    assert pay["covariant_vs_closed_proportional"]
    assert pay["series_vs_explicit_proportional"]
    assert pay["conic"]["deg"] == 2


def test_hessian2(capsys):
    code, rep = run_json(["hessian2", "--degree", "5"], capsys)
    assert code == 0
    assert rep["payload"]["hessian_matches_closed_form"]
    assert rep["payload"]["two_hessian_matches_factored_form"]


def test_census_with_fermat(capsys):
    code, rep = run_json(["census", "--arrangement", "B", "--degree", "5",
                          "--with-fermat"], capsys)
    assert code == 0
    ms = rep["payload"]["multiplicity_multiset"]
    assert ms == {"2": 75, "3": 25, "5": 3}
    assert rep["payload"]["tjurina_total"] == 4 * 25 + 3 * 16 + 75


def test_freeness_reports(capsys):
    code, rep = run_json(["freeness", "--arrangement", "BzMxNy",
                          "--degree", "4"], capsys)
    assert code == 0
    v = rep["payload"]["verdict"]
    assert v["free"] and v["exponents"] == [5, 6]
    checks = {c["candidate"]: c["is_syzygy"]
              for c in rep["payload"]["syzygy_checks"]}
    assert checks == {"grid-high": False, "grid-low": False,
                      "fermat-grid-high": True, "fermat-grid-low": True,
                      "koszul-xy": True}

    code, rep = run_json(["freeness", "--arrangement", "M", "--degree", "4"],
                         capsys)
    assert code == 0
    v = rep["payload"]["verdict"]
    assert not v["free"]
    assert v["discriminant_sign"] == "negative"


def test_collinear_d3(capsys):
    code, rep = run_json(["collinear", "--degree", "3"], capsys)
    assert code == 0
    pay = rep["payload"]
    assert (pay["line_count"], pay["intra_cluster"], pay["mixed_cluster"]) \
        == (81, 27, 54)


def test_verify_main_single_line(capsys):
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "4",
                          "--line-index", "0"], capsys)
    assert code == 0
    assert rep["payload"]["line_count"] == 1
    entry = rep["payload"]["lines"][0]
    assert entry["tangent"]["count"] == 1
    assert entry["conic"]["count"] == 2


def test_verify_invariant(capsys):
    code, rep = run_json(["verify", "--theorem", "invariant-intersection",
                          "--degree", "3", "--osc-degree", "2"], capsys)
    assert code == 0
    assert rep["payload"]["all_invariant"]


def test_verify_main_full_d3(capsys):
    code, rep = run_json(["verify", "--theorem", "main", "--degree", "3"],
                         capsys)
    assert code == 0
    assert rep["payload"]["line_count"] == 27
    for entry in rep["payload"]["lines"]:
        assert entry["tangent"]["count"] == 1
        expected = 1 if entry["line_label"].startswith("B") else 2
        assert entry["conic"]["count"] == expected


def test_usage_error_exit_code(capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--degree", "4"])     # missing --arrangement
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--arrangement", "nonsense", "--degree", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["points", "--degree", "3", "--jobs", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["all", "--max-degree", "3", "--collinear-cap", "9"])
    assert exc.value.code == 2

    def no_suite(d):
        raise RuntimeError(f"a suite started at d = {d}")

    monkeypatch.setattr(cli, "FermatCurve", no_suite)
    with pytest.raises(SystemExit) as exc:
        main(["all", "--max-degree", "13"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["collinear", "--degree", "13"])
    assert exc.value.code == 2
    for bits in ("52", "4097"):
        with pytest.raises(SystemExit) as exc:
            main(["points", "--degree", "3", "--precision", bits])
        assert exc.value.code == 2


def test_byte_stability(tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--seed", "7", "--out", str(p1)]) == 0
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--seed", "7", "--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_table_format(capsys):
    code, out = run_cli(["freeness", "--arrangement", "B", "--degree", "3",
                         "--format", "table"], capsys)
    assert code == 0
    assert "free=True" in out
    code, out = run_cli(["points", "--degree", "3", "--format", "table"],
                        capsys)
    assert code == 0
    assert "cluster" in out


def test_all_small_range(tmp_path):
    out = tmp_path / "all.json"
    assert main(["all", "--min-degree", "3", "--max-degree", "3",
                 "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["status"] == "ok"
    sec = rep["payload"]["degrees"]["3"]
    assert sec["collinear"]["line_count"] == 81
    assert sec["sextactic"]["count"] == 27
    assert sec["freeness"]["B"]["free"]
    assert sec["invariant_intersection"]["all_invariant"]


@pytest.mark.parametrize("argv", [
    ["all", "--min-degree", "3", "--max-degree", "5"],
    ["verify", "--theorem", "main", "--degree", "5"],
    ["census", "--arrangement", "triangle+BzMxNy", "--degree", "6",
     "--with-fermat"],
], ids=("all", "verify", "census"))
def test_memo_leaves_reports_unchanged(argv, tmp_path, monkeypatch):
    """The same bytes with the tower memo and without it."""
    memo, plain = tmp_path / "memo.json", tmp_path / "plain.json"
    assert main(argv + ["--out", str(memo)]) == 0
    monkeypatch.setattr(tower, "memoized", contextlib.nullcontext)
    assert main(argv + ["--out", str(plain)]) == 0
    assert memo.read_bytes() == plain.read_bytes()


def test_jobs_parallel_matches_serial(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--jobs", "2", "--out", str(a)]) == 0
    assert main(["verify", "--theorem", "main", "--degree", "3",
                 "--jobs", "1", "--out", str(b)]) == 0
    ra, rb = json.loads(a.read_text()), json.loads(b.read_text())
    assert ra["payload"] == rb["payload"]


def test_jobs_clamped_to_cpus_and_lines(monkeypatch, tmp_path):
    import fermatosc.cli as cli
    pools = []

    class SerialPool:
        """Stands in for the process pool: records its size, starts
        no process."""

        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--theorem", "main", "--degree", "3",
                     "--jobs", "10000", "--out", str(out)]) == 0
    assert pools == [4]
    assert json.loads(out.read_text())["payload"]["line_count"] == 27
    # a single line takes the serial path
    assert cli.main(["verify", "--theorem", "main", "--degree", "3",
                     "--line-index", "0", "--jobs", "10000",
                     "--out", str(out)]) == 0
    assert pools == [4]


def test_failure_exit_code(monkeypatch, capsys):
    import fermatosc.cli as cli

    def synthetic(args):
        return {"value": 1}, [{"check": "synthetic-failure"}]

    monkeypatch.setitem(cli.COMMANDS, "hessian2", synthetic)
    assert cli.main(["hessian2", "--degree", "3"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "failed"
    assert rep["failures"] == [{"check": "synthetic-failure"}]


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path
    # the subprocess does not see the sys.path entry conftest.py adds
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "fermatosc", "points", "--degree", "3"],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    rep = json.loads(out.stdout)
    assert rep["payload"]["sextactic_count"] == 27
