import argparse
import dataclasses
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbainv as rb
from conftest import assert_freed_on_the_calling_thread, calling_share
from rbainv import cli
from rbainv.cli import main

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBLEM_INI = """
[domain]
dimension = 2
extent = -60 60 -60 60
cells = 6 6
kappa = 1e5
sigma_background = 0.1

[source]
type = box
center = 0 0
size = 40 40
amplitude = 1.0

[receivers]
grid = -30 30 3 -30 30 3

[anomaly.cond]
box = -40 -10 -40 -10
sigma = 1.0
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    problem = tmp / "problem.ini"
    problem.write_text(PROBLEM_INI)
    prob = rb.build_problem(rb.parse_problem_file(problem))
    bound = rb.spectral_bound(prob, prob.reference_model())
    approx = tmp / "approx.json"
    rc = main(["fit-rba", "--times-log10", "-6:-3:9", "--poles", "10",
               "--xmax", str(10 * bound), "--out", str(approx)])
    assert rc == 0
    return tmp


def test_fit_rba_output_loadable(workdir):
    ap = rb.load_approximant(workdir / "approx.json")
    assert ap.pole_count == 10
    assert ap.channels.count == 9
    assert ap.fit_error < 1e-3


def test_forward_subcommand(workdir):
    out = workdir / "response.json"
    rc = main(["forward", "--problem", str(workdir / "problem.ini"),
               "--model", "true", "--approx", str(workdir / "approx.json"),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert len(doc["data"]) == 9 * 9
    assert doc["counters"]["factorizations"] == 10


def test_make_data_and_invert_and_report(workdir):
    data_path = workdir / "data.json"
    rc = main(["make-data", "--problem", str(workdir / "problem.ini"),
               "--approx", str(workdir / "approx.json"),
               "--eps-r", "0.03", "--seed", "11", "--out", str(data_path)])
    assert rc == 0
    data = rb.load_dataset(data_path)
    assert data.size == 81

    rundir = workdir / "run"
    rc = main(["invert", "--problem", str(workdir / "problem.ini"),
               "--data", str(data_path), "--approx", str(workdir / "approx.json"),
               "--lambda0", "50", "--max-gn", "5", "--out", str(rundir)])
    assert rc == 0
    assert (rundir / "state.json").exists()
    assert (rundir / "convergence.csv").exists()

    rc = main(["report", "--rundir", str(rundir)])
    assert rc == 0
    report = json.loads((rundir / "report.json").read_text())
    assert "iterations" in report and "counters" in report


@pytest.mark.parametrize("state_json", [None, "{", '{"history": 3}'],
                         ids=["missing", "not json", "history 3"])
def test_bad_report_rundir_is_a_usage_error(tmp_path, capsys, state_json):
    rundir = tmp_path / "run"
    if state_json is not None:
        rundir.mkdir()
        (rundir / "state.json").write_text(state_json)
    capsys.readouterr()
    assert main(["report", "--rundir", str(rundir)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "error: argument --rundir:" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unusable_invert_out_fails_before_the_inversion(workdir, capsys, monkeypatch, out):
    data = workdir / "data_out.json"
    assert main(["make-data", "--problem", str(workdir / "problem.ini"),
                 "--approx", str(workdir / "approx.json"), "--out", str(data)]) == 0
    (workdir / "file").write_text("not a directory")
    monkeypatch.setattr(cli, "run_inversion", lambda *args: pytest.fail("inversion ran"))
    capsys.readouterr()
    assert main(["invert", "--problem", str(workdir / "problem.ini"), "--data", str(data),
                 "--approx", str(workdir / "approx.json"), "--out", str(workdir / out)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "error: argument --out:" in errors[0]
    assert "Traceback" not in err


# the commands that write one --out file, and the library call doing each one's work
OUT_FILE_WORK = {
    "fit-rba": "fit_common_pole",
    "forward": "forward_response",
    "verify": "taylor_test",
    "make-data": "make_dataset",
    "report": "consolidate_report",
}


def out_file_command(workdir, command):
    """``command``'s arguments, all but --out."""
    if command == "fit-rba":
        return fit_args(workdir)
    inputs = ["--problem", str(workdir / "problem.ini"), "--approx", str(workdir / "approx.json")]
    if command == "report":
        rundir = workdir / "run_one_iteration"
        if not (rundir / "state.json").exists():
            data = workdir / "data_one_iteration.json"
            assert main(["make-data", *inputs, "--out", str(data)]) == 0
            assert main(["invert", *inputs, "--data", str(data), "--max-gn", "1",
                         "--out", str(rundir)]) == 0
        return ["report", "--rundir", str(rundir)]
    return [command, *inputs]


@pytest.mark.parametrize("command", OUT_FILE_WORK)
def test_out_file_in_a_new_directory(workdir, command):
    out = workdir / "new" / command / "out.json"
    assert main(out_file_command(workdir, command) + ["--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("out", ["file/x.json", "directory"])
@pytest.mark.parametrize("command", OUT_FILE_WORK)
def test_unusable_out_file_fails_before_the_work(workdir, capsys, monkeypatch, command, out):
    argv = out_file_command(workdir, command)
    (workdir / "file").write_text("not a directory")
    (workdir / "directory").mkdir(exist_ok=True)
    monkeypatch.setattr(cli, OUT_FILE_WORK[command], lambda *a, **k: pytest.fail("work ran"))
    capsys.readouterr()
    assert main(argv + ["--out", str(workdir / out)]) == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "error: argument --out:" in errors[0]
    assert "Traceback" not in err


def test_verify_subcommand(workdir):
    out = workdir / "verify.json"
    rc = main(["verify", "--problem", str(workdir / "problem.ini"),
               "--model", "true", "--approx", str(workdir / "approx.json"),
               "--trials", "5", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert 0.9 <= doc["taylor"]["slope_e0"] <= 1.1
    assert 1.8 <= doc["taylor"]["slope_e1"] <= 2.2
    assert doc["adjoint_max_mismatch"] <= 1e-10
    assert out.with_suffix(".csv").exists()


def verify_args(workdir, W, out):
    return ["verify", "--problem", str(workdir / "problem.ini"), "--model", "true",
            "--approx", str(workdir / "approx.json"), "--workers", str(W), "--out", str(out)]


def test_verify_builds_one_operator(workdir, factor_threads):
    # one factor set at the model, shared by the operator and the adjoint
    # check, then one per Taylor step (5); the calling process makes its
    # share of each set
    assert main(verify_args(workdir, 2, workdir / "verify_factors.json")) == 0
    m = rb.load_approximant(workdir / "approx.json").pole_count
    assert len(factor_threads) == 6 * calling_share(m, 2)
    assert_freed_on_the_calling_thread(factor_threads)


def test_verify_outputs_bit_identical_across_workers(workdir):
    outs = [workdir / f"verify_bits_w{W}.json" for W in (1, 3)]
    for W, out in zip((1, 3), outs):
        assert main(verify_args(workdir, W, out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].with_suffix(".csv").read_bytes() == outs[1].with_suffix(".csv").read_bytes()


def test_docs_name_exactly_the_parser_subcommands():
    doc = re.search(r"Subcommands:(.*?)\.\s", cli.__doc__, re.S).group(1)
    documented = {name.strip() for name in doc.split(",")}
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M)
    invoked = set(re.findall(r"^rbainv (\S+)", "".join(blocks), re.M))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert documented == invoked == set(sub.choices)


@pytest.mark.parametrize("W", [2, 3, 4])
@pytest.mark.parametrize("command", ["forward", "verify"])
def test_commands_free_every_factor_on_the_thread_that_made_it(workdir, factor_threads,
                                                               command, W):
    rc = main([command, "--problem", str(workdir / "problem.ini"), "--model", "true",
               "--approx", str(workdir / "approx.json"), "--workers", str(W),
               "--out", str(workdir / f"{command}_w{W}.json")])
    assert rc == 0
    assert_freed_on_the_calling_thread(factor_threads)
    assert not multiprocessing.active_children()


def fit_args(workdir):
    prob = rb.build_problem(rb.parse_problem_file(workdir / "problem.ini"))
    bound = rb.spectral_bound(prob, prob.reference_model())
    return ["fit-rba", "--times-log10", "-6:-3:9", "--poles", "10",
            "--xmax", str(10 * bound)]


def test_fit_rba_workers_bit_identical(workdir):
    outs = []
    for W in (1, 2, 4):
        out = workdir / f"approx_w{W}.json"
        assert main(fit_args(workdir) + ["--workers", str(W), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2] == (workdir / "approx.json").read_bytes()


def test_fit_rba_workers_bit_identical_with_threaded_blas(workdir):
    # BLAS thread counts are fixed when numpy and scipy load, so this runs
    # in a fresh interpreter with two OpenBLAS threads each
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")])))
    outs = [workdir / f"approx_blas2_w{W}.json" for W in (1, 2)]
    script = ("import sys\nfrom rbainv.cli import main\n"
              "for W, out in zip((1, 2), sys.argv[2:]):\n"
              "    assert main(sys.argv[1].split() + ['--workers', str(W), '--out', out]) == 0\n")
    subprocess.run([sys.executable, "-c", script, " ".join(fit_args(workdir)), *map(str, outs)],
                   env=env, check=True, capture_output=True)
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_fit_rba_prints_one_line_per_iteration(workdir, capsys):
    out = workdir / "approx_history.json"
    assert main(fit_args(workdir) + ["--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    iterations = int(re.search(r"\((\d+) iterations", lines[0]).group(1))
    assert iterations > 0 and len(lines) == 1 + iterations
    assert all(re.fullmatch(rf"  iteration {k}: max abs error \S+, pole move \S+", line)
               for k, line in enumerate(lines[1:], 1))


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_malformed_workers_env_is_a_usage_error(workdir, monkeypatch, capsys, value):
    monkeypatch.setenv("RBAINV_WORKERS", value)
    forward = ["forward", "--problem", str(workdir / "problem.ini"),
               "--approx", str(workdir / "approx.json"),
               "--out", str(workdir / "bad_env.json")]
    with pytest.raises(SystemExit) as exc:
        main(forward)
    assert exc.value.code == 2
    assert "RBAINV_WORKERS" in capsys.readouterr().err
    # an explicit --workers wins, and commands without workers never read it
    assert main(forward + ["--workers", "2"]) == 0
    assert main(["make-data", "--problem", str(workdir / "problem.ini"),
                 "--approx", str(workdir / "approx.json"),
                 "--out", str(workdir / "bad_env_data.json")]) == 0


@pytest.mark.parametrize("value", ["0", "two"])
def test_bad_workers_option_is_a_usage_error(workdir, capsys, value):
    with pytest.raises(SystemExit) as exc:
        main(fit_args(workdir) + ["--workers", value, "--out", str(workdir / "x.json")])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("option,value", [
    ("--times-log10", "abc"), ("--times-log10", "-6:-3"), ("--times-log10", "-6:-3:0"),
    ("--times-log10", "-3:-6:31"), ("--times-log10", "nan:-3:4"), ("--times-log10", "-6:inf:4"),
    ("--poles", "0"), ("--xmin", "-1"), ("--xmax", "0"), ("--max-iters", "0"),
])
def test_bad_fit_rba_input_is_a_usage_error(workdir, capsys, option, value):
    out = workdir / "fit_bad.json"
    argv = fit_args(workdir) + ["--out", str(out)]
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    try:
        code = main(argv)
    except SystemExit as exc:   # argparse rejected the option
        code = exc.code
    assert code == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert not out.exists()


@pytest.mark.parametrize("field,message", [("times", "times"), ("receivers", "receivers")])
def test_invert_rejects_mismatched_inputs(workdir, capsys, field, message):
    problem = rb.build_problem(rb.parse_problem_file(workdir / "problem.ini"))
    approx = rb.load_approximant(workdir / "approx.json")
    data = rb.make_dataset(problem, problem.true_model(), approx, rb.NoiseSpec(seed=2))
    data = dataclasses.replace(data, **{field: getattr(data, field) * 1.5})
    path = workdir / f"data_bad_{field}.json"
    rb.save_dataset(data, path)
    rundir = workdir / f"run_bad_{field}"
    capsys.readouterr()
    rc = main(["invert", "--problem", str(workdir / "problem.ini"), "--data", str(path),
               "--approx", str(workdir / "approx.json"), "--max-gn", "2",
               "--out", str(rundir)])
    assert rc != 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and "Traceback" not in err
    assert not rundir.exists()


BAD_PROBLEM_EDITS = {
    "dimension 3": ("dimension = 2", "dimension = 3"),
    "short receiver grid": ("grid = -30 30 3 -30 30 3", "grid = -45 45 7"),
    "no domain": ("[domain]", "[dom]"),
    "inverted extent": ("extent = -60 60 -60 60", "extent = 60 -60 -60 60"),
    "no receivers": ("[receivers]\ngrid = -30 30 3 -30 30 3", ""),
    "sigma_background 0": ("sigma_background = 0.1", "sigma_background = 0"),
    "sigma_background -0.1": ("sigma_background = 0.1", "sigma_background = -0.1"),
    "ring source": ("type = box", "type = ring"),
    "delta without position": ("type = box", "type = delta"),
    "kappa inf": ("kappa = 1e5", "kappa = inf"),
    "kappa -1e5": ("kappa = 1e5", "kappa = -1e5"),
    "kappa 0": ("kappa = 1e5", "kappa = 0"),
    "periodic bc": ("kappa = 1e5", "kappa = 1e5\nbc = periodic"),
    "cells 6.7 6": ("cells = 6 6", "cells = 6.7 6"),
    "anomaly sigma 0": ("sigma = 1.0", "sigma = 0"),
    "anomaly 3-number box": ("box = -40 -10 -40 -10", "box = -40 -10 -40"),
    "anomaly without sigma": ("sigma = 1.0\n", ""),
    "kapa": ("kappa = 1e5", "kapa = 1e5"),
    "amplitud": ("amplitude = 1.0", "amplitud = 2.0"),
    "sources section": ("[source]", "[sources]"),
    "3-number center": ("center = 0 0", "center = 0 0 7"),
}


def write_input(workdir, option, kind):
    """A bad file for ``option``: missing, unparseable ("garbage"), a JSON
    object with no entries ("{}"), a problem file with one of the
    BAD_PROBLEM_EDITS, a --model with the wrong cell count ("short") or
    one NaN or infinite entry, or a good --approx or --data file with one
    entry replaced ("entry=json")."""
    path = workdir / f"bad_{option[2:]}_{kind.replace(' ', '_')}"
    if kind == "missing":
        return str(path)
    if kind in ("garbage", "{}"):
        text = "m = 1" if kind == "garbage" else kind
    elif kind in BAD_PROBLEM_EDITS:
        text = PROBLEM_INI.replace(*BAD_PROBLEM_EDITS[kind])
    elif "=" in kind:
        entry, value = kind.split("=")
        good = workdir / ("approx.json" if option == "--approx" else "data_good.json")
        text = json.dumps({**json.loads(good.read_text()), entry: json.loads(value)})
    else:
        prob = rb.build_problem(rb.parse_problem_file(workdir / "problem.ini"))
        m = prob.reference_model().m.tolist()
        if kind == "short":
            m = m[:-1]
        else:
            m[3] = float(kind)
        text = json.dumps({"m": m})
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command,option,value", [
    ("forward", "--model", "short"), ("forward", "--model", "nan"),
    ("verify", "--model", "inf"), ("make-data", "--model", "short"),
    ("forward", "--model", "missing"), ("verify", "--model", "garbage"),
    ("forward", "--problem", "dimension 3"), ("forward", "--problem", "short receiver grid"),
    ("forward", "--problem", "no domain"), ("forward", "--problem", "inverted extent"),
    ("verify", "--problem", "no receivers"), ("make-data", "--problem", "no receivers"),
    ("forward", "--problem", "sigma_background 0"),
    ("forward", "--problem", "sigma_background -0.1"),
    ("forward", "--problem", "ring source"), ("forward", "--problem", "delta without position"),
    ("forward", "--problem", "kappa inf"), ("forward", "--problem", "kappa -1e5"),
    ("forward", "--problem", "kappa 0"), ("forward", "--problem", "periodic bc"),
    ("forward", "--problem", "cells 6.7 6"), ("make-data", "--problem", "anomaly sigma 0"),
    ("make-data", "--problem", "anomaly 3-number box"),
    ("make-data", "--problem", "anomaly without sigma"),
    ("forward", "--problem", "kapa"), ("forward", "--problem", "amplitud"),
    ("forward", "--problem", "sources section"), ("forward", "--problem", "3-number center"),
    ("forward", "--problem", "garbage"),
    ("forward", "--problem", "missing"), ("forward", "--approx", "missing"),
    ("make-data", "--approx", "{}"), ("verify", "--approx", "garbage"),
    ("invert", "--data", "missing"), ("invert", "--data", "{}"), ("invert", "--data", "garbage"),
    ("make-data", "--eps-r", "-1"), ("make-data", "--eps-a", "0"),
    ("verify", "--trials", "0"), ("verify", "--seed", "-1"), ("make-data", "--seed", "-1"),
    ("invert", "--lambda0", "0"), ("invert", "--lambda0", "-1"),
    ("invert", "--lambda0", "nan"), ("invert", "--lambda0", "inf"),
    ("invert", "--max-gn", "0"), ("invert", "--lsqr-max-iters", "0"),
    ("invert", "--chi2-target", "nan"), ("invert", "--lsqr-tol", "nan"),
    ("invert", "--lsqr-tol", "-1"), ("invert", "--approx", "poles=1"),
    ("invert", "--data", "sigma_d=[1.0]"), ("invert", "--data", "seed=[4]"),
])
def test_bad_command_input_is_a_usage_error(workdir, capsys, command, option, value):
    out = workdir / f"bad_{command}.json"
    argv = [command, "--problem", str(workdir / "problem.ini"),
            "--approx", str(workdir / "approx.json")]
    if command == "invert":
        data = workdir / "data_good.json"
        assert main(["make-data"] + argv[1:] + ["--seed", "4", "--out", str(data)]) == 0
        argv += ["--data", str(data)]
    if option in ("--problem", "--approx", "--data", "--model"):
        value = write_input(workdir, option, value)
    capsys.readouterr()
    try:
        code = main(argv + [option, value, "--out", str(out)])
    except SystemExit as exc:   # argparse rejected the option
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"argument {option}:" in errors[0]
    assert "Traceback" not in err
    assert not out.exists()

