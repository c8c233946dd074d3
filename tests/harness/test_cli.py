"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main

FAST = ["--traces-per-suite", "1", "--length", "12000"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("argv", [
    ["run", "xbc", "--length", "-5"],
    ["run", "xbc", "--length", "0"],
    ["analyze", "--length", "0"],
    ["fig8", "--traces-per-suite", "0"],
    ["fig8", "--length", "-5"],
    ["all", "--traces-per-suite", "-1"],
    ["sweep", "--length", "0"],
    ["generate", "--traces-per-suite", "0"],
    ["info", "--length", "0"],
    ["fuzz", "run", "--length", "0"],
])
def test_non_positive_counts_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_fig1(capsys):
    assert main(["fig1"] + FAST) == 0
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "paper" in out


def test_fig8(capsys):
    assert main(["fig8", "--size", "4096"] + FAST) == 0
    assert "Figure 8" in capsys.readouterr().out


def test_fig9(capsys):
    assert main(["fig9", "--sizes", "2048", "8192"] + FAST) == 0
    assert "Figure 9" in capsys.readouterr().out


def test_fig10(capsys):
    assert main(["fig10", "--assocs", "1", "2", "--size", "4096"] + FAST) == 0
    assert "Figure 10" in capsys.readouterr().out


def test_claims(capsys):
    args = ["claims", "--sizes", "2048", "4096",
            "--reference-size", "2048"] + FAST
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "T2" in out and "T3" in out


def test_claims_csv(tmp_path, capsys):
    path = str(tmp_path / "claims.csv")
    args = ["claims", "--sizes", "2048", "4096",
            "--reference-size", "2048", "--csv", path] + FAST
    assert main(args) == 0
    with open(path) as handle:
        header = handle.readline()
    assert header.strip() == "metric,value"


def test_jobs_flag_matches_serial_output(capsys):
    args = ["fig9", "--sizes", "2048"] + FAST
    assert main(args + ["--jobs", "1", "--no-cache"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--jobs", "2", "--no-cache"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == serial


def test_warm_cache_rerun_is_identical(tmp_path, capsys):
    """Second run hits the persistent cache and prints the same table."""
    cache = str(tmp_path / "cache")
    args = ["fig9", "--sizes", "2048", "--cache-dir", cache] + FAST
    assert main(args) == 0
    cold = capsys.readouterr().out
    assert main(args) == 0
    warm = capsys.readouterr().out
    assert warm == cold
    import os
    assert os.listdir(os.path.join(cache, "results"))


def test_run_command(capsys):
    assert main(["run", "xbc", "--length", "12000", "--size", "2048"]) == 0
    out = capsys.readouterr().out
    assert "frontend=xbc" in out
    assert "uop miss rate" in out


def test_run_every_frontend(capsys):
    for kind in ("ic", "tc", "bbtc"):
        assert main(["run", kind, "--length", "8000"]) == 0


def test_info(capsys):
    assert main(["info"] + FAST) == 0
    out = capsys.readouterr().out
    assert "specint" in out and "games" in out
    assert "[trace cache]" in out
    assert "[persistent cache]" in out


def test_info_reports_populated_cache(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    assert main(["fig9", "--sizes", "2048", "--cache-dir", cache] + FAST) == 0
    capsys.readouterr()
    assert main(["info", "--cache-dir", cache] + FAST) == 0
    out = capsys.readouterr().out
    assert f"[persistent cache] {cache}:" in out
    assert "results entries=0" not in out


def test_run_command_selects_registry_trace(capsys):
    """run/analyze address the same trace the registry would build."""
    assert main(["run", "xbc", "--suite", "games", "--index", "1",
                 "--length", "8000", "--size", "2048"]) == 0
    out = capsys.readouterr().out
    assert "games-1" in out


def test_suite_filter(capsys):
    assert main(["fig1", "--suite", "games"] + FAST) == 0
    out = capsys.readouterr().out
    assert "games" in out
    assert "sysmark" not in out.replace("sysmark |", "")


def test_generate_command(tmp_path, capsys):
    out = str(tmp_path / "traces")
    assert main(["generate", "--traces-per-suite", "1",
                 "--length", "5000", "--out", out]) == 0
    import os
    files = sorted(os.listdir(out))
    assert files == ["games-0.trace", "specint-0.trace", "sysmark-0.trace"]
    from repro.trace.tracefile import load_trace
    trace = load_trace(os.path.join(out, "specint-0.trace"))
    assert trace.total_uops >= 5000


def test_analyze_command(capsys):
    assert main(["analyze", "--length", "15000"]) == 0
    out = capsys.readouterr().out
    assert "redundancy factor" in out
    assert "XB usage" in out
    assert "reuse-distance" in out


def test_scenario_command(tmp_path, capsys):
    path = str(tmp_path / "scenario.csv")
    args = ["scenario", "--server-uops", "20000", "--csv", path] + FAST
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "server-web" in out and "specint" in out
    assert "MEAN:suite" in out and "MEAN:server" in out
    with open(path) as handle:
        header = handle.readline()
    assert header.strip() == "scenario,group,tc_hit,xbc_hit,delta,inverted"


def test_scenario_can_drop_server_group(capsys):
    assert main(["scenario", "--server-traces", "0"] + FAST) == 0
    out = capsys.readouterr().out
    assert "server-" not in out


def test_info_lists_profiles(capsys):
    assert main(["info"] + FAST) == 0
    out = capsys.readouterr().out
    assert "[profiles]" in out
    assert "server-oltp" in out and "server-micro" in out


def test_info_json_includes_profiles(capsys):
    import json
    assert main(["info", "--json"] + FAST) == 0
    data = json.loads(capsys.readouterr().out)
    names = [entry["name"] for entry in data["profiles"]]
    assert "server-web" in names and "specint" in names


def test_fuzz_run_writes_corpus(tmp_path, capsys):
    path = str(tmp_path / "findings.json")
    args = ["fuzz", "run", "--budget", "4", "--seed", "1",
            "--length", "6000", "--out", path, "--no-cache"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "[fuzz] corpus written to" in out
    from repro.scenario.findings import FindingsCorpus
    corpus = FindingsCorpus.load(path)
    assert corpus.meta["seed"] == 1
    assert corpus.meta["base"] == "server-web"


def _pinned_corpus(path):
    """A one-finding corpus for the known static_uops=2101 inversion."""
    from repro.scenario.findings import Finding, FindingsCorpus
    from repro.scenario.search import evaluate_point, fuzz_program_seed
    from repro.scenario.space import ParameterSpace

    space = ParameterSpace.default("server-web")
    point = space.point_from_base()
    point["static_uops"] = 2_101.0
    evaluation = evaluate_point(
        space, point, program_seed=fuzz_program_seed(1),
        total_uops=8192, length_uops=40_000,
    )
    corpus = FindingsCorpus(meta={"seed": 1})
    corpus.add(Finding.from_evaluation(
        evaluation, "server-web", deltas={"static_uops": 2_101.0}
    ))
    corpus.save(path)
    return corpus


def test_fuzz_replay_and_report(tmp_path, capsys):
    path = str(tmp_path / "findings.json")
    corpus = _pinned_corpus(path)
    finding = corpus.findings[0]

    assert main(["fuzz", "replay", "--corpus", path, "--no-cache"]) == 0
    assert "OK" in capsys.readouterr().out

    args = ["fuzz", "replay", "--corpus", path,
            "--id", finding.id[:8], "--no-cache"]
    assert main(args) == 0
    assert finding.id[:12] in capsys.readouterr().out

    assert main(["fuzz", "report", "--corpus", path]) == 0
    out = capsys.readouterr().out
    assert finding.id[:12] in out
    assert "static_uops" in out


def test_fuzz_replay_detects_corruption(tmp_path, capsys):
    import json
    path = str(tmp_path / "findings.json")
    _pinned_corpus(path)
    with open(path) as handle:
        payload = json.load(handle)
    payload["findings"][0]["trace_hash"] = "deadbeef"
    with open(path, "w") as handle:
        json.dump(payload, handle)
    assert main(["fuzz", "replay", "--corpus", path, "--no-cache"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_fuzz_replay_empty_corpus_fails(tmp_path, capsys):
    from repro.scenario.findings import FindingsCorpus
    path = str(tmp_path / "findings.json")
    FindingsCorpus().save(path)
    assert main(["fuzz", "replay", "--corpus", path]) == 1


def test_scenario_includes_findings_group(tmp_path, capsys):
    path = str(tmp_path / "findings.json")
    _pinned_corpus(path)
    args = ["scenario", "--server-traces", "0",
            "--findings", path] + FAST
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "MEAN:finding" in out
    assert "INVERSION" in out
