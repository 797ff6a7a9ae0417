"""End-to-end command line behavior via main(argv)."""

from __future__ import annotations

import csv

import pytest

from quartetmerge import parse_topology, parse_topology_file
from quartetmerge.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_to_stdout(capsys):
    code, out, err = run_cli(capsys, "gen", "--shape", "star", "--size", "4", "--seed", "1")
    assert code == 0 and err == ""
    tree, config = parse_topology(out)
    assert tree.n_receivers == 4
    assert config is not None


def test_gen_to_file(tmp_path, capsys):
    path = tmp_path / "t.topo"
    code, out, _ = run_cli(
        capsys, "gen", "--shape", "tall_binary", "--size", "5", "--out", str(path)
    )
    assert code == 0
    assert "wrote" in out
    tree, config = parse_topology_file(path)
    assert tree.n_receivers == 5 and config is not None


@pytest.mark.parametrize("alg, queries", [("rea", "5"), ("gbs", None)])
def test_infer_reads_back_generated_file(tmp_path, capsys, alg, queries):
    path = tmp_path / "t.topo"
    run_cli(capsys, "gen", "--shape", "tall_binary", "--size", "6", "--out", str(path))
    code, out, err = run_cli(capsys, "infer", str(path), "--alg", alg)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[-1] == "correct: true"
    joins = dict(line.split() for line in lines[:6])
    _, config = parse_topology_file(path)
    assert joins == dict(config.joins)
    if queries is not None:
        assert f"queries: {queries}" in lines


def test_infer_with_majority_noise(tmp_path, capsys):
    path = tmp_path / "t.topo"
    run_cli(capsys, "gen", "--shape", "perfect_binary", "--size", "4", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "infer", str(path),
        "--noise-p", "0.1", "--repeats", "5", "--noise-seed", "3",
    )
    assert code == 0
    probes = int(next(l.split()[1] for l in out.splitlines() if l.startswith("probes:")))
    queries = int(next(l.split()[1] for l in out.splitlines() if l.startswith("queries:")))
    assert probes == 5 * queries


def test_infer_requires_join_lines(tmp_path, capsys):
    path = tmp_path / "bare.topo"
    path.write_text("root s1\nedge s1 b1 e1\nedge b1 r1 e2\nedge b1 r2 e3\n"
                    "receiver r1\nreceiver r2\n")
    code, _, err = run_cli(capsys, "infer", str(path))
    assert code == 2
    assert "no join lines" in err


def test_sweep_writes_csv_and_summary(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--shape", "star", "--size", "4", "6",
        "--alg", "rea", "--realizations", "2", "--out", str(path),
    )
    assert code == 0
    with open(path, newline="") as fh:
        records = list(csv.reader(fh))
    assert len(records) == 1 + 4
    assert "star" in out and "mean_queries" in out


def test_bruteforce_on_generated_shape(capsys):
    code, out, _ = run_cli(capsys, "bruteforce", "--shape", "tall_binary", "--size", "4")
    assert code == 0
    assert "valid configs: 48" in out
    assert "lower bound: 2" in out
    assert "min quartets over all configs:" in out


def test_bruteforce_on_file_reports_witness(tmp_path, capsys, three_fork_tree,
                                            three_fork_config):
    from quartetmerge import JoiningConfig, write_topology_file

    path = tmp_path / "fork.topo"
    write_topology_file(path, three_fork_tree, JoiningConfig(three_fork_config))
    code, out, _ = run_cli(capsys, "bruteforce", str(path))
    assert code == 0
    assert "valid configs: 28" in out
    assert "min quartets for the file's config:" in out
    assert "witness:" in out


def test_bruteforce_needs_an_instance(capsys):
    code, _, err = run_cli(capsys, "bruteforce")
    assert code == 2
    assert "topology file or both" in err


def test_bruteforce_with_size_zero_reaches_the_shape_check(capsys):
    # --size 0 is given, so the shape's own check rejects it
    code, _, err = run_cli(capsys, "bruteforce", "--shape", "star", "--size", "0")
    assert code == 1
    assert "star needs at least 2 receivers" in err


def test_multi_totals(capsys):
    code, out, _ = run_cli(
        capsys, "multi", "--shape", "perfect_binary", "--size", "8", "--sources", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "source 2: queries 7, correct true"
    assert lines[1] == "source 3: queries 7, correct true"
    assert lines[2] == "total queries: 14"


def test_multi_rejects_single_source(capsys):
    code, _, err = run_cli(capsys, "multi", "--shape", "star", "--size", "4",
                           "--sources", "1")
    assert code == 2 and "at least 2" in err


def test_domain_errors_exit_one(capsys):
    code, _, err = run_cli(capsys, "gen", "--shape", "star", "--size", "1")
    assert code == 1
    assert err.startswith("error:")


def test_parse_errors_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.topo"
    path.write_text("root s1\nroot s2\n")
    code, _, err = run_cli(capsys, "infer", str(path))
    assert code == 1
    assert "line 2" in err
