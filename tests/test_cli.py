import json
import subprocess
import sys
from pathlib import Path

import pytest

import edgesample
from edgesample.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sample_emits_valid_edge(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--generate", "star:5", "--epsilon", "0.25", "--seed", "7",
        "--estimator", "exact",
    )
    assert code == 0
    line = json.loads(out.strip())
    u, v = line["edge"]
    assert (u == 0) != (v == 0)  # every star edge touches the center
    assert line["m_hat"] == 10.0
    assert line["queries"]["pair"] == 0
    assert line["config"]["seed"] == 7
    assert line["config"]["m_directed"] == 10
    assert line["config"]["m_undirected"] == 5


def test_sample_count_many_lines(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--generate", "er:100,0.08", "--seed", "3", "--count", "5"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 5
    assert all("edge" in l for l in lines)


def test_sample_reuse_estimate_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--generate", "er:100,0.08", "--seed", "3", "--count", "3",
        "--estimator", "degree-sum-mc", "--samples", "30", "--reuse-estimate",
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len({l["m_hat"] for l in lines}) == 1  # one shared estimate


def test_epsilon_out_of_range_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--generate", "star:5", "--epsilon", "0.7")
    assert code == 2
    assert "(0, 0.5)" in err
    for command in ("verify", "bench", "lb"):
        code, out, err = run_cli(capsys, command, "--generate", "star:5", "--epsilon", "0.5", "--seed", "1")
        assert (code, out) == (2, "")
        assert "(0, 0.5)" in err


def test_zero_samples_is_usage_error_for_every_estimator(capsys):
    # the exact estimator reads no samples, but a count below 1 is still rejected
    for estimator in ("exact", "degree-sum-mc"):
        for command in ("estimate", "sample", "bench"):
            argv = [command, "--generate", "star:5", "--estimator", estimator, "--samples", "0", "--seed", "1"]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert "sample count must be >= 1" in err


@pytest.mark.parametrize("env_seed, argv, message", [
    ("abc", "estimate --generate star:5", "EDGE_SAMPLER_SEED must be an integer"),
    ("-7", "sample --generate star:20 --count 2", "EDGE_SAMPLER_SEED must be >= 0"),
    (None, "sample --generate star:20 --seed -7 --count 2", "--seed must be >= 0"),
    (None, "sample --generate er:100,0.1 --seed -1", "--seed must be >= 0"),
    (None, "sample --generate star:5 --seed 1 --count 0", "--count must be >= 1"),
    (None, "verify --generate star:5 --seed 1 --theta 0", "--theta must be >= 1"),
    (None, "lb --generate er:40,0.1 --seed 1 --budgets 1,x", "--budgets must be comma-separated integers"),
    (None, "bench --generate star:5 --seed 1 --trials 29", "at least 30 trials"),
    # 8 PB of samples exceeds any address space, so numpy refuses before allocating
    (None, f"estimate --generate er:1000,0.01 --seed 1 --samples {10**15}", "out of memory"),
])
def test_usage_errors_exit_two_with_one_line(capsys, monkeypatch, env_seed, argv, message):
    if env_seed is None:
        monkeypatch.delenv("EDGE_SAMPLER_SEED", raising=False)
    else:
        monkeypatch.setenv("EDGE_SAMPLER_SEED", env_seed)
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


def test_exactly_one_graph_source(capsys):
    code, _, err = run_cli(capsys, "sample", "--epsilon", "0.25")
    assert code == 2
    assert "exactly one" in err
    code, _, err = run_cli(
        capsys, "sample", "--graph", "x", "--generate", "star:5"
    )
    assert code == 2


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "sample", "--graph", "/nonexistent/g.edges")
    assert code == 3


def test_malformed_graph_file_is_data_error(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("n 3\n0 1\n1 x\n")
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad), "--seed", "1")
    assert code == 3
    assert f"{bad}:3:" in err
    bad.write_text("0 1\n1 0\n")  # well-formed text, but a duplicate edge
    code, _, err = run_cli(capsys, "sample", "--graph", str(bad), "--seed", "1")
    assert code == 3
    assert "duplicate" in err
    bad.write_text("n 2000000000\n0 1\n")  # a short file naming 2e9 vertices
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad), "--seed", "1")
    assert code == 3
    assert f"{bad}: header names 2000000000 vertices" in err
    bad.write_text("0 1999999999\n")  # no header: max id + 1 names 2e9 vertices
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad), "--seed", "1")
    assert code == 3
    assert f"{bad}: ids name 2000000000 vertices" in err
    bad.write_text("n 5\n0 1\nn 3\n1 2\n")  # a second header
    code, _, err = run_cli(capsys, "verify", "--graph", str(bad), "--seed", "1")
    assert code == 3
    assert f"{bad}:3: second 'n' header" in err
    # a bad generator spec is still a usage error
    code, _, _ = run_cli(capsys, "verify", "--generate", "er:-5,0.1", "--seed", "1")
    assert code == 2


def test_verify_star_theta3(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--generate", "star:5", "--theta", "3", "--seed", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["closeness"]["max_ratio_dev"] == 0.0
    assert report["closeness"]["pointwise_ok"] is True
    assert report["bounds"]["all_passed"] is True
    assert report["theta"] == 3


def test_verify_builds_one_distribution(capsys, monkeypatch):
    from edgesample import analytic

    calls = []
    real = analytic.partition

    def counting_partition(g, theta):
        calls.append(theta)
        return real(g, theta)

    monkeypatch.setattr(analytic, "partition", counting_partition)
    code, out, _ = run_cli(capsys, "verify", "--generate", "star:12", "--theta", "4", "--seed", "1")
    assert code == 0
    assert json.loads(out)["bounds"]["all_passed"] is True
    assert calls == [4]


def test_byte_identical_reruns(capsys):
    args = ("sample", "--generate", "er:200,0.05", "--seed", "99", "--count", "3")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("EDGE_SAMPLER_SEED", "1234")
    code, out, _ = run_cli(capsys, "estimate", "--generate", "star:5", "--estimator", "exact")
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 1234


def test_explicit_seed_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("EDGE_SAMPLER_SEED", "1234")
    code, out, _ = run_cli(
        capsys, "estimate", "--generate", "star:5", "--estimator", "exact", "--seed", "8"
    )
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 8


def test_estimate_exact(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--generate", "path:3", "--estimator", "exact", "--seed", "0"
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["m_hat"] == 4.0
    assert rep["queries"]["total"] == 0


def test_gen_roundtrip(capsys, tmp_path):
    out_file = tmp_path / "g.edges"
    code, out, _ = run_cli(
        capsys, "gen", "--generate", "er:50,0.1", "--seed", "4", "--out", str(out_file)
    )
    assert code == 0
    meta = json.loads(out)
    assert meta["n"] == 50
    assert out_file.exists()
    code, out, _ = run_cli(
        capsys, "sample", "--graph", str(out_file), "--seed", "5"
    )
    assert code == 0
    assert "edge" in json.loads(out)


def test_gen_write_error_is_io_error(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--generate", "star:3", "--seed", "0", "--out", "/nonexistent/dir/g.edges"
    )
    assert code == 3


def test_sampler_failure_exits_one(capsys, tmp_path):
    # one edge lost among many isolated vertices: the fallback fails with
    # probability (1 - 2/n^2)^n, nearly 1 for n = 400
    target = tmp_path / "needle.edges"
    target.write_text("n 400\n0 1\n")
    code, out, _ = run_cli(
        capsys, "sample", "--graph", str(target), "--seed", "12", "--epsilon", "0.45"
    )
    line = json.loads(out.strip().splitlines()[-1])
    if code == 1:
        assert line["failure"] is True
    else:
        assert code == 0 and "edge" in line  # improbable lucky seed


def test_bench_csv_and_summary(capsys):
    code, out, err = run_cli(
        capsys,
        "bench", "--generate", "er:128,0.125", "--generate", "er:256,0.0625",
        "--trials", "40", "--seed", "2",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("spec,n,m_dir,epsilon,trials,mean_queries")
    assert len(lines) == 3
    summary = json.loads(err)
    assert "slope" in summary and summary["config"]["trials"] == 40


def test_bench_plot_data(capsys):
    code, out, _ = run_cli(
        capsys,
        "bench", "--generate", "er:128,0.125", "--generate", "er:256,0.0625",
        "--trials", "35", "--seed", "2", "--plot-data",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# cost_scale")
    assert all(len(l.split()) == 3 for l in lines[1:])


def test_lb_csv_and_summary(capsys):
    code, out, err = run_cli(
        capsys,
        "lb", "--generate", "er:80,0.1", "--trials", "40", "--seed", "3",
        "--budgets", "1,10", "--strategies", "blind-guess,greedy-pairs",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("base_spec,n,m_dir,k,e_k_dir,budget,strategy")
    assert len(lines) == 5  # header + 2 strategies x 2 budgets
    summary = json.loads(err)
    assert summary["config"]["strategies"] == ["blind-guess", "greedy-pairs"]
    assert summary["e_k_over_m"] >= 0.5


def test_lb_negative_budget_usage_error(capsys):
    argv = ["lb", "--generate", "er:200,0.05", "--trials", "5", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv, "--budgets", "0,-3")
    assert code == 2 and out == ""
    assert "budgets must be >= 0" in err
    code, out, _ = run_cli(capsys, *argv, "--budgets", "0")  # a budget of 0 stays valid
    assert code == 0 and len(out.splitlines()) == 4  # header + 3 strategies


def test_lb_unknown_strategy_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "lb", "--generate", "er:80,0.1", "--strategies", "psychic"
    )
    assert code == 2
    assert "psychic" in err


def test_usage_error_exit_code_from_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--bogus-flag"])
    assert exc.value.code == 2


def test_all_names_resolve():
    assert len(set(edgesample.__all__)) == len(edgesample.__all__)
    for name in edgesample.__all__:
        assert getattr(edgesample, name) is not None, name
    namespace = {}
    exec("from edgesample import *", namespace)
    assert set(edgesample.__all__) <= namespace.keys()


def test_import_leaves_scipy_unloaded():
    # scipy takes longer to import than the package, and only the chi-square of
    # empirical_distribution needs it.
    src = str(Path(edgesample.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import edgesample, edgesample.cli; "
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
