import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rbainv as rb
from conftest import assert_freed_where_made
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


def test_bench_scaling_subcommand(workdir):
    out = workdir / "scaling.json"
    rc = main(["bench-scaling", "--problem", str(workdir / "problem.ini"),
               "--approx", str(workdir / "approx.json"),
               "--workers", "1,2", "--out", str(out)])
    assert rc == 0
    rows = json.loads(out.read_text())
    assert [r["workers"] for r in rows] == [1, 2]
    assert len({r["checksum"] for r in rows}) == 1


@pytest.mark.parametrize("W", [2, 3, 4])
@pytest.mark.parametrize("command", ["forward", "verify"])
def test_commands_free_every_factor_on_the_thread_that_made_it(workdir, factor_threads,
                                                               command, W):
    rc = main([command, "--problem", str(workdir / "problem.ini"), "--model", "true",
               "--approx", str(workdir / "approx.json"), "--workers", str(W),
               "--out", str(workdir / f"{command}_w{W}.json")])
    assert rc == 0
    assert_freed_where_made(factor_threads)


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


@pytest.mark.parametrize("value", ["0", "1,x"])
def test_bad_bench_scaling_workers_is_a_usage_error(workdir, capsys, value):
    out = workdir / "scaling_bad.json"
    with pytest.raises(SystemExit) as exc:
        main(["bench-scaling", "--problem", str(workdir / "problem.ini"),
              "--approx", str(workdir / "approx.json"),
              "--workers", value, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "Traceback" not in err
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


def write_model(workdir, kind):
    """A --model file: the wrong cell count, or one NaN or infinite entry."""
    prob = rb.build_problem(rb.parse_problem_file(workdir / "problem.ini"))
    m = prob.reference_model().m.tolist()
    if kind == "short":
        m = m[:-1]
    else:
        m[3] = float(kind)
    path = workdir / f"model_{kind}.json"
    path.write_text(json.dumps({"m": m}))
    return str(path)


@pytest.mark.parametrize("command,option,value", [
    ("forward", "--model", "short"), ("forward", "--model", "nan"),
    ("verify", "--model", "inf"), ("make-data", "--model", "short"),
    ("make-data", "--eps-r", "-1"), ("make-data", "--eps-a", "0"),
    ("verify", "--trials", "0"), ("verify", "--seed", "-1"), ("make-data", "--seed", "-1"),
    ("invert", "--lambda0", "0"), ("invert", "--lambda0", "-1"),
    ("invert", "--lambda0", "nan"), ("invert", "--lambda0", "inf"),
    ("invert", "--max-gn", "0"), ("invert", "--lsqr-max-iters", "0"),
])
def test_bad_command_input_is_a_usage_error(workdir, capsys, command, option, value):
    out = workdir / f"bad_{command}.json"
    argv = [command, "--problem", str(workdir / "problem.ini"),
            "--approx", str(workdir / "approx.json")]
    if option == "--model":
        value = write_model(workdir, value)
    if command == "invert":
        data = workdir / "data_good.json"
        assert main(["make-data"] + argv[1:] + ["--seed", "4", "--out", str(data)]) == 0
        argv += ["--data", str(data)]
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
