"""Golden output of the CLI: the exact exit status, stdout and stderr of small seeded runs.

Each case pins every byte a command prints, and for ``gen`` the file it
writes, so a refactor of the table printing or of the graph generators
that changes any of them fails here. A change to a seeded stream (the
estimator's or the kernel's draws, the relabeling of ``clique_union``)
changes these literals too; such a change updates them and says so in
CHANGES.md.
"""

import pytest

from edgesample.cli import main

# (command line, exit status, stdout, stderr, text of the file ``gen`` writes or None)
GOLDEN = [
    (
        "sample --generate er:300,0.05 --seed 5 --count 3",
        0,
        (
            '{"attempts": 19, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 4564, "m_undirected": 2282, "n": 300, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 5, '
            '"source": "er:300,0.05"}, "edge": [286, 16], "fallback": false, "m_hat": 5850.0, '
            '"q": 105, "queries": {"degree": 19, "neighbor": 19, "pair": 0, "total": 57, '
            '"vertex": 19}, "theta": 217}\n'
            '{"attempts": 10, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 4564, "m_undirected": 2282, "n": 300, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 5, '
            '"source": "er:300,0.05"}, "edge": [117, 144], "fallback": false, "m_hat": 5625.0, '
            '"q": 107, "queries": {"degree": 12, "neighbor": 10, "pair": 0, "total": 32, '
            '"vertex": 10}, "theta": 213}\n'
            '{"attempts": 4, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 4564, "m_undirected": 2282, "n": 300, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 5, '
            '"source": "er:300,0.05"}, "edge": [210, 295], "fallback": false, "m_hat": 7087.5, '
            '"q": 96, "queries": {"degree": 4, "neighbor": 4, "pair": 0, "total": 12, '
            '"vertex": 4}, "theta": 239}\n'
        ),
        "",
        None,
    ),
    (
        "sample --generate clique_union:er:300,0.05,40 --seed 2 --count 3",
        1,
        (
            '{"attempts": 95, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 6054, "m_undirected": 3027, "n": 340, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 2, '
            '"source": "clique_union:er:300,0.05,40"}, "failure": true, "fallback": false, '
            '"m_hat": 9180.0, "q": 95, "queries": {"degree": 98, "neighbor": 95, "pair": 0, '
            '"total": 288, "vertex": 95}, "theta": 271}\n'
            '{"attempts": 41, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 6054, "m_undirected": 3027, "n": 340, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 2, '
            '"source": "clique_union:er:300,0.05,40"}, "edge": [13, 257], "fallback": false, '
            '"m_hat": 8797.5, "q": 97, "queries": {"degree": 42, "neighbor": 41, "pair": 0, '
            '"total": 124, "vertex": 41}, "theta": 266}\n'
            '{"attempts": 34, "config": {"command": "sample", "count": 3, "epsilon": 0.25, '
            '"estimator": "degree-sum-mc", "m_directed": 6054, "m_undirected": 3027, "n": 340, '
            '"reps": 1, "reuse_estimate": false, "samples": null, "seed": 2, '
            '"source": "clique_union:er:300,0.05,40"}, "edge": [177, 219], "fallback": false, '
            '"m_hat": 6502.5, "q": 113, "queries": {"degree": 34, "neighbor": 34, "pair": 0, '
            '"total": 102, "vertex": 34}, "theta": 229}\n'
        ),
        "",
        None,
    ),
    (
        "estimate --generate er:300,0.05 --seed 3 --reps 3",
        0,
        (
            '{"config": {"command": "estimate", "estimator": "degree-sum-mc", '
            '"m_directed": 4460, "m_undirected": 2230, "n": 300, "reps": 3, "samples": null, '
            '"seed": 3, "source": "er:300,0.05"}, "m_hat": 6525.0, '
            '"method": "degree-sum-mc-median-3", "queries": {"degree": 66, "neighbor": 0, '
            '"pair": 0, "total": 132, "vertex": 66}}\n'
        ),
        "",
        None,
    ),
    (
        "verify --generate clique_union:star:30,4 --seed 13",
        0,
        (
            '{"bounds": {"all_passed": true, "checks": [{"applicable": true, "margin": 0.0, '
            '"name": "light_success_equals_e_light_over_n_theta", "note": "success=0.05", '
            '"passed": true}, {"applicable": true, "margin": 0.0, '
            '"name": "heavy_success_within_interval", "note": "success=0.0357143 in [0.03125, '
            '0.0357143]", "passed": true}, {"applicable": true, "margin": 3.75, '
            '"name": "heavy_light_degree_dominates", "note": "1 heavy vertices", '
            '"passed": true}, {"applicable": true, "margin": 0.0107142857143, '
            '"name": "mixture_success_lower_bound", "note": "success=0.0428571 >= 0.0321429", '
            '"passed": true}], "epsilon": 0.25, "theta": 24}, '
            '"closeness": {"max_ratio_dev": 0.0, "pointwise_ok": true, "tv_distance": 0.0}, '
            '"config": {"command": "verify", "epsilon": 0.25, "m_directed": 72, '
            '"m_undirected": 36, "n": 35, "seed": 13, "source": "clique_union:star:30,4", '
            '"theta": 24}, "success_prob": 0.0428571428571, "theta": 24}\n'
        ),
        "",
        None,
    ),
    (
        "bench --generate path:20 --generate star:20 --generate er:60,0.1 --trials 30 --seed 1",
        0,
        (
            'spec,n,m_dir,epsilon,trials,mean_queries,stddev_queries,failure_rate,cost_scale\n'
            'path:20,20,38,0.25,30,19.9333333333,13.180625512,0.166666666667,6.48885684523\n'
            'star:20,21,40,0.25,30,19.2,13.7559684016,0.133333333333,6.64078308635\n'
            '"er:60,0.1",60,324,0.25,30,20.6666666667,24.6594584062,0,6.66666666667\n'
        ),
        (
            '{"config": {"command": "bench", "epsilon": 0.25, "estimator": "exact", '
            '"samples": null, "seed": 1, "specs": ["path:20", "star:20", "er:60,0.1"], '
            '"trials": 30}, "intercept": 2.40957864193, "slope": 0.308649323946}\n'
        ),
        None,
    ),
    (
        "bench --generate path:20 --generate star:20 --generate er:60,0.1 --trials 30 --seed 1 --plot-data",
        0,
        (
            '# cost_scale mean_queries stddev_queries\n'
            '6.48885684523 19.9333333333 13.180625512\n'
            '6.64078308635 19.2 13.7559684016\n'
            '6.66666666667 20.6666666667 24.6594584062\n'
        ),
        (
            '{"config": {"command": "bench", "epsilon": 0.25, "estimator": "exact", '
            '"samples": null, "seed": 1, "specs": ["path:20", "star:20", "er:60,0.1"], '
            '"trials": 30}, "intercept": 2.40957864193, "slope": 0.308649323946}\n'
        ),
        None,
    ),
    (
        "lb --generate er:40,0.1 --trials 20 --seed 1 --budgets 0,3,30",
        0,
        (
            'base_spec,n,m_dir,k,e_k_dir,budget,strategy,trials,clique_hit_rate,witness_rate,retu'
            'rn_rate,tv_lower_estimate,witness_envelope\n'
            '"er:40,0.1",54,340,14,182,0,blind-guess,20,0.1,0,1,0.4,0\n'
            '"er:40,0.1",54,340,14,182,3,blind-guess,20,0,0,1,0.5,1\n'
            '"er:40,0.1",54,340,14,182,30,blind-guess,20,0,0,1,0.5,1\n'
            '"er:40,0.1",54,340,14,182,0,greedy-pairs,20,0,0,0,0.5,0\n'
            '"er:40,0.1",54,340,14,182,3,greedy-pairs,20,0,0.2,0,0.5,1\n'
            '"er:40,0.1",54,340,14,182,30,greedy-pairs,20,0.684210526316,0.95,0.95,0,1\n'
            '"er:40,0.1",54,340,14,182,0,truncated-sampler,20,0,0,0,0.5,0\n'
            '"er:40,0.1",54,340,14,182,3,truncated-sampler,20,0.6,0.2,0.25,0,1\n'
            '"er:40,0.1",54,340,14,182,30,truncated-sampler,20,0.470588235294,0.75,0.85,0.029411764'
            '7059,1\n'
        ),
        (
            '{"config": {"base_spec": "er:40,0.1", "budgets": [0, 3, 30], "command": "lb", '
            '"epsilon": 0.25, "seed": 1, "strategies": ["truncated-sampler", "greedy-pairs", '
            '"blind-guess"], "trials": 20}, "e_k_over_m": 0.535294117647, "k": 14, "rows": 9}\n'
        ),
        None,
    ),
    (
        "lb --generate er:40,0.1 --trials 20 --seed 1 --budgets 0,3,30 --plot-data",
        0,
        (
            '# budget witness_rate clique_hit_rate tv_lower_estimate strategy\n'
            '0 0 0.1 0.4 blind-guess\n'
            '3 0 0 0.5 blind-guess\n'
            '30 0 0 0.5 blind-guess\n'
            '0 0 0 0.5 greedy-pairs\n'
            '3 0.2 0 0.5 greedy-pairs\n'
            '30 0.95 0.684210526316 0 greedy-pairs\n'
            '0 0 0 0.5 truncated-sampler\n'
            '3 0.2 0.6 0 truncated-sampler\n'
            '30 0.75 0.470588235294 0.0294117647059 truncated-sampler\n'
        ),
        (
            '{"config": {"base_spec": "er:40,0.1", "budgets": [0, 3, 30], "command": "lb", '
            '"epsilon": 0.25, "seed": 1, "strategies": ["truncated-sampler", "greedy-pairs", '
            '"blind-guess"], "trials": 20}, "e_k_over_m": 0.535294117647, "k": 14, "rows": 9}\n'
        ),
        None,
    ),
    (
        "gen --generate clique_union:er:12,0.2,4 --seed 4 --out g.edges",
        0,
        (
            '{"config": {"command": "gen", "seed": 4, "spec": "clique_union:er:12,0.2,4"}, '
            '"m_directed": 48, "m_undirected": 24, "n": 16, "out": "g.edges"}\n'
        ),
        "",
        (
            'n 16\n'
            '0 11\n'
            '0 2\n'
            '0 12\n'
            '1 9\n'
            '1 12\n'
            '2 15\n'
            '3 11\n'
            '3 9\n'
            '3 12\n'
            '4 15\n'
            '4 10\n'
            '4 6\n'
            '5 13\n'
            '5 14\n'
            '5 8\n'
            '6 7\n'
            '6 11\n'
            '6 12\n'
            '7 15\n'
            '7 10\n'
            '8 13\n'
            '8 14\n'
            '10 11\n'
            '13 14\n'
        ),
    ),
    (
        "sample --generate path:300 --estimator exact --seed 1 --count 2",
        0,
        (
            '{"attempts": 22, "config": {"command": "sample", "count": 2, "epsilon": 0.25, '
            '"estimator": "exact", "m_directed": 598, "m_undirected": 299, "n": 300, "reps": 1, '
            '"reuse_estimate": false, "samples": null, "seed": 1, "source": "path:300"}, '
            '"edge": [32, 33], "fallback": true, "m_hat": 598.0, "q": 328, '
            '"queries": {"degree": 0, "neighbor": 22, "pair": 0, "total": 44, "vertex": 22}, '
            '"theta": 70}\n'
            '{"attempts": 45, "config": {"command": "sample", "count": 2, "epsilon": 0.25, '
            '"estimator": "exact", "m_directed": 598, "m_undirected": 299, "n": 300, "reps": 1, '
            '"reuse_estimate": false, "samples": null, "seed": 1, "source": "path:300"}, '
            '"edge": [254, 253], "fallback": true, "m_hat": 598.0, "q": 328, '
            '"queries": {"degree": 0, "neighbor": 45, "pair": 0, "total": 90, "vertex": 45}, '
            '"theta": 70}\n'
        ),
        "",
        None,
    ),
]


@pytest.mark.parametrize(
    "command, code, out, err, written", GOLDEN, ids=[f"{i}-{case[0].split()[0]}" for i, case in enumerate(GOLDEN)]
)
def test_cli_output_is_byte_identical_to_golden(command, code, out, err, written, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # gen writes its file here
    argv = command.split()
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err
    if written is not None:
        assert (tmp_path / argv[argv.index("--out") + 1]).read_text() == written
