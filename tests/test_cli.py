"""End-to-end CLI tests driving ``main`` in-process."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtvar.cli import build_parser, main
from spechtvar.partitions import format_partition, partitions_of

GOLDEN = Path(__file__).parent / "golden" / "table9.tsv"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    payload = json.loads(out)
    assert set(payload) == {"command", "version", "config", "report"}
    return payload


def test_info_reports_partition_invariants(capsys):
    payload = run_json(["info", "--mu", "(3,3,3)", "--p", "3"], capsys)
    assert payload["command"] == "info"
    assert payload["config"]["p"] == 3
    rep = payload["report"]
    assert rep["mu"] == "(3,3,3)"
    assert rep["conjugate"] == "(3,3,3)"
    assert rep["size"] == 9
    assert rep["core"] == "()"
    assert rep["weight"] == 3
    assert rep["dim_specht"] == 42
    assert rep["dim_perm"] == 1680
    assert rep["n"] == 3
    assert rep["pxp_blocks"] is True


def test_phi_chain_and_hypothesis(capsys):
    rep = run_json(["phi", "--mu", "(4,3,2)"], capsys)["report"]
    assert rep["phi_chain"] == ["(4,3,2)", "(4,4,1)", "(5,4)", "(6,3)"]
    assert rep["Phi"] == "(6,3)"
    assert rep["hypothesis"] == "H1"
    assert rep["prediction"] == {"variety": "full-rank-3", "complexity": 3}


def test_phi_rejects_nonempty_core(capsys):
    code, out, err = run(["phi", "--mu", "(7,2)"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert "phi domain" in err


def test_predict_handles_partitions_outside_phi_domain(capsys):
    rep = run_json(["predict", "--mu", "(7,2)"], capsys)["report"]
    assert rep["core"] == "(4,2)"
    assert rep["weight"] == 1
    assert rep["phi_chain"] is None
    assert rep["prediction"] == {"variety": "defect-dim-1", "complexity": 1}

    rep = run_json(["predict", "--mu", "(5,3,1)"], capsys)["report"]
    assert rep["weight"] == 0
    assert rep["prediction"] == {"variety": "defect-dim-0", "complexity": 0}


def test_jordan_exact_report(capsys):
    rep = run_json(["jordan", "--mu", "(8,1)", "--p", "3", "--mode", "exact"],
                   capsys)["report"]
    assert rep["module_dim"] == 8
    assert rep["rank_vector"] == [8, 5, 2, 0]
    assert rep["type"] == {"blocks": [0, 1, 2], "pretty": "(3^2,2)"}
    assert rep["stable_type"] == {"blocks": [0, 1, 0], "pretty": "(2)"}
    assert rep["mode"] == "exact"
    assert rep["samples"] == 0 and rep["field"] is None
    assert rep["generically_free"] is False


def test_jordan_output_is_deterministic_for_fixed_seed(capsys):
    argv = ["jordan", "--mu", "(4,2)", "--p", "2", "--seed", "7", "--samples", "3"]
    _, first, _ = run(argv, capsys)
    _, second, _ = run(argv, capsys)
    assert first == second
    rep = json.loads(first)["report"]
    assert rep["mode"] == "randomized"
    assert rep["rank_vector"] == [9, 4, 0]


def test_variety_tsv_sweep(capsys):
    code, out, err = run(
        ["variety", "--mu", "(3,3,3)", "--p", "3", "--ext", "1", "--out", "tsv"],
        capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point\tfree\trank_vector"
    assert len(lines) == 14  # 13 projective points over GF(3), n=3
    free = [ln for ln in lines[1:] if ln.split("\t")[1] == "true"]
    assert len(free) == 6
    assert all(ln.endswith("42,28,14,0") for ln in free)


def test_variety_json_projective_module_has_empty_locus(capsys):
    rep = run_json(["variety", "--mu", "(5,3,1)", "--p", "3", "--ext", "2"],
                   capsys)["report"]
    assert rep["module_dim"] == 162
    assert rep["total_projective_points"] == 91
    assert rep["locus_size"] == 0
    assert rep["points"] == []
    assert rep["class"] == {"kind": "zero", "est_dim": 0, "form": None}


def test_variety_json_other_class_p2(capsys):
    # not zero, full, axes or a hypersurface: the dimension comes from the
    # affine counts over GF(2) and GF(4), read from the module already built
    rep = run_json(["variety", "--mu", "(4,4)", "--p", "2", "--ext", "2"],
                   capsys)["report"]
    assert rep["total_projective_points"] == 85
    assert rep["class"] == {"kind": "other", "est_dim": 3, "form": None}


def test_table9_matches_golden(capsys):
    code, out, err = run(["table9"], capsys)
    assert code == 0
    assert out == GOLDEN.read_text()
    rows = out.splitlines()[1:]
    assert len(rows) == 16
    assert all(row.endswith("\ttrue") for row in rows)


# stdout of the point-evaluation path, written by the CLI before the powers
# of N were evaluated from coefficient stacks
_GOLDEN_RUNS = [
    (["jordan", "--mu", "(4,3,1,1)", "--p", "3"], "jordan_4311_p3.json"),
    (["jordan", "--mu", "(7,3)", "--p", "5"], "jordan_73_p5.json"),
    (["variety", "--mu", "(6,3)", "--p", "3", "--ext", "2", "--out", "tsv"],
     "variety_63_p3_ext2.tsv"),
]


@pytest.mark.parametrize("argv,golden", _GOLDEN_RUNS, ids=[g for _, g in _GOLDEN_RUNS])
def test_stdout_matches_golden(argv, golden, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    assert out == (GOLDEN.parent / golden).read_text()


def test_young_summand_set(capsys):
    rep = run_json(["young", "--r", "9", "--m", "4", "--p", "3"], capsys)["report"]
    assert rep["s_values"] == [1, 2, 4]
    assert rep["summands"] == ["(8,1)", "(7,2)", "(5,4)"]


def test_verify_runs_all_checks(capsys):
    # cheap here: the acceptance tests have already warmed every cache
    code, out, err = run(["verify"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    assert all(line.startswith("PASS ") for line in lines[:8])
    assert lines[-1] == "8/8 acceptance checks passed"


def test_cache_dir_is_scoped_to_its_command(tmp_path, monkeypatch, capsys):
    # --cache-dir holds for its own command only; a later command in the
    # same process is back on SPECHTVAR_CACHE, or on no cache when unset
    scoped, default = tmp_path / "scoped", tmp_path / "default"
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    run_json(["jordan", "--mu", "(4,2)", "--p", "3", "--cache-dir", str(scoped)], capsys)
    assert "SPECHTVAR_CACHE" not in os.environ
    written = sorted(scoped.iterdir())
    assert len(written) == 1
    monkeypatch.setenv("SPECHTVAR_CACHE", str(default))
    run_json(["jordan", "--mu", "(4,2)", "--p", "3", "--cache-dir", str(scoped)], capsys)
    payload = run_json(["jordan", "--mu", "(5,1)", "--p", "3"], capsys)
    assert payload["config"]["cache_dir"] == str(default)
    assert os.environ["SPECHTVAR_CACHE"] == str(default)
    assert sorted(scoped.iterdir()) == written
    assert len(list(default.iterdir())) == 1


@pytest.mark.parametrize("argv", [
    ["info", "--mu", "nope"],
    ["info", "--mu", "(3,2)", "--p", "9"],
    ["jordan", "--mu", "(8,1)", "--p", "7"],  # module construction gates p
    ["jordan", "--mu", "(8,1)", "--samples", "0"],
    ["variety", "--mu", "(3,3,3)", "--ext", "0"],
    ["table9", "--threads", "0"],
    ["frobnicate"],
    [],
])
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_combinatorial_commands_accept_any_prime(capsys):
    rep = run_json(["info", "--mu", "(7)", "--p", "7"], capsys)["report"]
    assert rep["core"] == "()"
    assert rep["weight"] == 1
    assert rep["dim_specht"] == 1


def test_parser_has_all_subcommands():
    parser = build_parser()
    subs = next(a for a in parser._actions
                if isinstance(a, type(parser._subparsers._group_actions[0])))
    expected = {"info", "phi", "predict", "jordan", "variety", "table9",
                "young", "verify"}
    assert expected <= set(subs.choices)


def _fresh_env():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "SPECHTVAR_CACHE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


_MAIN = "import sys; from spechtvar.cli import main; sys.exit(main(sys.argv[1:]))"


def test_repeated_main_calls_match_fresh_processes(monkeypatch, capsys):
    # one parser serves every call in a process: each call prints and
    # exits as it does in a process of its own
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    assert build_parser() is build_parser()
    argvs = [["jordan", "--mu", "(4,2)", "--p", "3"],
             ["variety", "--mu", "(3,3)", "--p", "3"],
             ["jordan", "--mu", "(8,1)", "--samples", "0"],
             ["jordan", "--mu", "(4,x)"],
             ["jordan", "--mu", "(4,3)", "--p", "3"]]
    in_process = []
    for argv in argvs * 2:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert in_process[:len(argvs)] == in_process[len(argvs):]
    assert [run[0] for run in in_process[:len(argvs)]] == [0, 0, 2, 2, 1]
    env = _fresh_env()
    for argv, got in zip(argvs, in_process):
        fresh = subprocess.run([sys.executable, "-c", _MAIN, *argv], env=env,
                               capture_output=True, text=True, timeout=300)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_jordan_on_a_thousand_cell_row_exits_cleanly():
    # S^(1000) has one standard tableau with 1000 cells, listed without
    # one recursion per cell, in a fresh process at the default limit
    run = subprocess.run([sys.executable, "-c", _MAIN, "jordan", "--mu", "(1000)",
                          "--p", "2"], env=_fresh_env(), capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Traceback" not in run.stderr
    assert json.loads(run.stdout)["report"]["rank_vector"] == [1, 0, 0]


@pytest.mark.parametrize("argv", [
    ["jordan", "--mu", "(5,2,2)", "--p", "3"],
    ["variety", "--mu", "(3,3,3)", "--p", "3", "--ext", "3", "--out", "json"],
], ids=["jordan", "variety"])
def test_output_is_the_same_under_python_O(argv):
    # invariants are typed errors, not asserts, so -O changes nothing
    env = _fresh_env()
    runs = [subprocess.run([sys.executable, *flags, "-c", _MAIN, *argv], env=env,
                           capture_output=True, timeout=300)
            for flags in ([], ["-O"])]
    for run in runs:
        assert run.returncode == 0, run.stderr.decode()
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout


def _mostly(good, bad):
    """Valid values three times in four, an invalid one otherwise."""
    return st.integers(0, 3).flatmap(lambda i: good if i else bad)


# partitions of n * p for the module primes, so that jordan and variety run
_MODULE_MU = {p: [format_partition(mu) for m in range(p, 7, p) for mu in partitions_of(m)]
              for p in (2, 3, 5)}
# any small partition (mostly of a size the prime does not divide), or no partition
_OTHER_MU = st.one_of(
    st.lists(st.integers(1, 6), max_size=4).filter(lambda parts: sum(parts) <= 6)
      .map(lambda parts: format_partition(tuple(sorted(parts, reverse=True)))),
    st.sampled_from(["(2,3)", "(0)", "(-1)", "(3,x)", "", "3,2", "(1,1", "x"]))
_BAD_PRIME = st.sampled_from(["7", "257", "4", "1", "0", "-3", "x"])
_FLAGS = {
    "jordan": [("--mode", _mostly(st.sampled_from(["random", "exact"]), st.just("bogus"))),
               ("--seed", st.integers(-2, 3).map(str)),
               ("--samples", _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str))],
    "variety": [("--ext", _mostly(st.integers(1, 3), st.integers(-1, 0)).map(str)),
                ("--out", _mostly(st.sampled_from(["json", "tsv"]), st.just("xml")))],
}


@st.composite
def _argv(draw):
    command = draw(_mostly(st.sampled_from(["info", "phi", "predict", "jordan", "variety",
                                            "young"]), st.just("frobnicate")))
    argv = [command]
    p = draw(st.sampled_from([2, 3, 5]))
    if command == "young":
        argv += ["--r", str(draw(st.integers(-2, 8))), "--m", str(draw(st.integers(-2, 5)))]
    elif draw(_mostly(st.just(True), st.just(False))):  # --mu is required
        argv += ["--mu", draw(_mostly(st.sampled_from(_MODULE_MU[p]), _OTHER_MU))]
    argv += ["--p", draw(_mostly(st.just(str(p)), _BAD_PRIME))]
    for flag, values in _FLAGS.get(command, []):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(argv=_argv(), cached=st.booleans())
def test_every_run_exits_0_1_or_2_without_a_traceback(tmp_path_factory, argv, cached):
    if cached:  # one cache directory shared by the examples
        argv = argv + ["--cache-dir", str(tmp_path_factory.getbasetemp() / "cli-cache")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue(), argv
    if code == 1:
        assert err.getvalue().startswith("error: "), argv
