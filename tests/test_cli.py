"""Command-line interface: subcommands, initial-state parsing, exit codes."""

import json
import os
import subprocess
import sys

import pytest

from filaments.cli import main, parse_initial
from filaments.core import Filament
from filaments.rules import serialize_rule, automaton_ii
from filaments.search import search_type_a


# -- initial-state parsing -------------------------------------------------------


def test_parse_initial_plain_digits():
    assert parse_initial("0221", None, 3) == Filament.from_string("0221")
    assert parse_initial("0221", 4, 3) == Filament.from_string("0221")
    with pytest.raises(ValueError):
        parse_initial("0221", 5, 3)
    with pytest.raises(ValueError):
        parse_initial("0321", None, 3)


def test_parse_initial_run_length_patterns():
    assert parse_initial("[0 2^3]", None, 3) == Filament.from_string("0222")
    assert parse_initial("[0 2^{n-1}]", 5, 3) == Filament.from_string("02222")
    assert parse_initial("[0^{n-1} 1]", 4, 3) == Filament.from_string("0001")
    assert parse_initial("[01 1^2]", None, 2) == Filament.from_string("0111")
    # A zero-count token simply contributes nothing.
    assert parse_initial("[0^{n-1} 1]", 1, 3) == Filament.from_string("1")
    with pytest.raises(ValueError):
        parse_initial("[0 2^{n-1}]", None, 3)  # needs a length for n
    with pytest.raises(ValueError):
        parse_initial("[0^{n-1}]", 1, 3)  # denotes an empty filament
    with pytest.raises(ValueError):
        parse_initial("[0^{n-3}]", 2, 3)  # negative repeat count


def test_parse_initial_named_forms():
    assert parse_initial("zeros-then-ones", 4, 3) == Filament.from_string("0001")
    assert parse_initial("uniform:2", 3, 3) == Filament.from_string("222")
    a = parse_initial("random:9", 12, 3)
    b = parse_initial("random:9", 12, 3)
    assert a == b
    assert len(a) == 12
    with pytest.raises(ValueError):
        parse_initial("random:9", None, 3)
    with pytest.raises(ValueError):
        parse_initial("uniform:5", 3, 3)


# -- subcommands ------------------------------------------------------------------


def test_trace_ascii_output(capsys):
    rc = main(["trace", "--rule", "automaton-i", "--init", "[0 2^{n-1}]",
               "--length", "4", "--steps", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out == "0222\n0022\n0002\n0001\n"


def test_trace_pgm_output(capsys, tmp_path):
    path = tmp_path / "trace.pgm"
    rc = main(["trace", "--rule", "automaton-ii", "--init", "zeros-then-ones",
               "--length", "4", "--steps", "2", "--format", "pgm", "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert text.startswith("P2\n4 3\n255\n")
    assert capsys.readouterr().out == ""


def test_trace_pgm_of_a_one_state_rule_is_black(capsys, tmp_path):
    rule, path = tmp_path / "one.rule", tmp_path / "trace.pgm"
    rule.write_text("states 1\nradius 1\nsymmetric false\n")
    rc = main(["trace", "--rule", str(rule), "--init", "000", "--steps", "2",
               "--format", "pgm", "--out", str(path)])
    assert rc == 0
    assert path.read_text() == "P2\n3 3\n255\n0 0 0\n0 0 0\n0 0 0\n"
    assert capsys.readouterr().out == ""


def test_classify_reports_cycle(capsys):
    rc = main(["classify", "--rule", "automaton-i", "--init", "0222"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "outcome: cyclic",
        "transient: 0",
        "period: 18",
        "wave: A",
        "k_max: 1",
        "horizon: 300",
    ]


def test_classify_quiescent_prints_settle_time(capsys):
    rc = main(["classify", "--rule", "automaton-ii", "--init", "0000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "outcome: quiescent" in out
    assert "settle_time: 0" in out


def test_classify_unresolved_exit_code(capsys):
    rc = main(["classify", "--rule", "automaton-i", "--init", "0222", "--horizon", "5"])
    assert rc == 2
    assert "outcome: unresolved" in capsys.readouterr().out


def test_classify_rejects_negative_horizon(capsys):
    rc = main(["classify", "--rule", "automaton-i", "--init", "0222", "--horizon", "-1"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: horizon must be non-negative\n"


def test_census_output(capsys):
    rc = main(["census", "--rule", "automaton-i", "--n", "6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "live: 366" in out
    assert "prediction_mismatches: 0" in out


def test_census_respects_budget(capsys):
    rc = main(["census", "--rule", "automaton-i", "--n", "19"])
    assert rc == 1
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "0"])
def test_census_rejects_lengths_below_one(capsys, n):
    rc = main(["census", "--rule", "automaton-i", "--n", n])
    assert rc == 1
    assert "n must be at least 1" in capsys.readouterr().err


def test_census_rejects_a_negative_horizon(capsys):
    rc = main(["census", "--rule", "automaton-i", "--n", "4", "--horizon", "-5"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: horizon must be non-negative\n"


def test_population_csv(capsys, tmp_path):
    path = tmp_path / "pop.csv"
    rc = main(["population", "--rule", "automaton-i", "--m", "4", "--ticks", "10",
               "--seed", "0", "--n0", "4", "--growth-interval", "5", "--out", str(path)])
    assert rc == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,population_size,filament_length,live_count,live_fraction,grew"
    assert len(lines) == 11
    # With --out the CSV goes to the file and stdout stays quiet.
    assert capsys.readouterr().out == ""
    # Without --out the same CSV lands on stdout.
    rc = main(["population", "--rule", "automaton-i", "--m", "4", "--ticks", "10",
               "--seed", "0", "--n0", "4", "--growth-interval", "5"])
    assert rc == 0
    assert capsys.readouterr().out == path.read_bytes().decode()


def test_population_requires_seed(capsys):
    rc = main(["population", "--rule", "automaton-i", "--m", "4", "--ticks", "10"])
    assert rc == 1
    assert "--seed" in capsys.readouterr().err


def test_population_rejects_a_turnover_window_of_zero(capsys):
    rc = main(["population", "--rule", "automaton-i", "--m", "4", "--ticks", "10",
               "--seed", "0", "--turnover-window", "0"])
    assert rc == 1
    assert capsys.readouterr().err == "error: window must be at least 1\n"


def test_search_two_state_scan(capsys):
    rc = main(["search", "--lengths", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "coverage: 4=exhaustive" in out
    assert "budget" not in out and "seed" not in out
    rc = main(["search", "--lengths", "4", "--sample-size", "8"])
    assert rc == 1
    assert "unrecognized arguments: --sample-size" in capsys.readouterr().err
    rc = main(["search", "--lengths", "4", "--budget", "8"])
    assert rc == 1
    assert "--budget only applies to the 3-state-symmetric-sample space" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["2-state", "3-state-sweeps"])
def test_search_rejects_a_seed_outside_the_sampled_space(capsys, space):
    rc = main(["search", "--space", space, "--lengths", "4", "--seed", "5"])
    assert rc == 1
    assert "--seed only applies to the 3-state-symmetric-sample space" in capsys.readouterr().err


def test_search_sampled_space_seed_defaults_to_zero(capsys):
    args = ["search", "--space", "3-state-symmetric-sample", "--budget", "1000", "--hunt-lengths", "2,3"]
    assert main(args) == 0
    unseeded = capsys.readouterr().out
    assert main(args + ["--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded
    assert main(args + ["--seed", "1"]) == 0
    assert capsys.readouterr().out != unseeded


def test_search_witness_csv(capsys, tmp_path):
    path = tmp_path / "witnesses.csv"
    rc = main(["search", "--lengths", "4..5", "--witness-csv", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("two-state radius-1 rule scan\n")
    expected = ["rule_index,n,initial,period,k_max,travelling,sweeping"] + [
        f"{w.rule_index},{w.n},{w.initial},{w.period},{w.k_max},{int(w.travelling)},{int(w.sweeping)}"
        for w in search_type_a(lengths=(4, 5)).witnesses
    ]
    assert path.read_bytes().decode() == "".join(row + "\r\n" for row in expected)
    rc = main(["search", "--space", "3-state-sweeps", "--witness-csv", str(path)])
    assert rc == 1
    assert "--witness-csv only applies to the 2-state space" in capsys.readouterr().err


@pytest.mark.parametrize("space", ["3-state-sweeps", "3-state-symmetric-sample"])
@pytest.mark.parametrize("flag", ["--lengths", "--k-a", "--audit-csv"])
def test_search_rejects_two_state_flags_in_the_three_state_spaces(capsys, tmp_path, space, flag):
    value = {"--lengths": "9", "--k-a": "5", "--audit-csv": str(tmp_path / "audit.csv")}[flag]
    budget = ["--budget", "5"] if space == "3-state-symmetric-sample" else []
    assert main(["search", "--space", space, *budget, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} only applies to the 2-state space\n"
    assert not (tmp_path / "audit.csv").exists()


def test_search_rejects_hunt_lengths_in_the_two_state_space(capsys):
    rc = main(["search", "--lengths", "4", "--hunt-lengths", "4,5"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --hunt-lengths only applies to the 3-state spaces\n"


def test_search_defaults_equal_their_explicit_values(capsys):
    assert main(["search", "--lengths", "4..5"]) == 0
    assert main(["search", "--lengths", "4..5", "--k-a", "2"]) == 0
    implicit, explicit = capsys.readouterr().out.split("two-state radius-1 rule scan\n")[1:]
    assert implicit == explicit and "k_a: 2\n" in implicit
    sampled = ["search", "--space", "3-state-symmetric-sample", "--budget", "50"]
    assert main(sampled) == 0
    assert main(sampled + ["--hunt-lengths", "4,5"]) == 0
    implicit, explicit = capsys.readouterr().out.split("three-state viability hunt\n")[1:]
    assert implicit == explicit and "probe lengths: 4 5\n" in implicit


def test_search_hunt_smoke(capsys):
    rc = main(["search", "--space", "3-state-symmetric-sample", "--budget", "25",
               "--seed", "1", "--hunt-lengths", "4,5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "candidates_total: 25" in out


def test_search_hunt_rejects_an_oversized_probe_length(capsys):
    rc = main(["search", "--space", "3-state-sweeps", "--hunt-lengths", "14,15"])
    assert rc == 1  # a usage error, raised before any state is built
    assert "probe lengths up to 12" in capsys.readouterr().err


def test_rule_info_and_index(capsys):
    rc = main(["rule-info", "--rule", "oblivious-example"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "oblivious: true" in out
    assert "index: 186" in out
    rc = main(["rule-info", "--rule", "bouncer"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "interesting: true" in out
    assert "index:" not in out  # indexing only covers two-state radius-1 rules


def test_rule_info_names_the_conflicting_entries(capsys, tmp_path):
    path = tmp_path / "clash.rule"
    path.write_text("states 2\nradius 1\nsymmetric false\n\n0 | 1 * -> 1\n0 | * 1 -> 0\n")
    assert main(["rule-info", "--rule", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: conflicting entries: rule 'clash': entries disagree on current=0, left=(1,), right=(1,): "
        "[RuleEntry(current=0, left=(1,), right=('*',), next_state=1), "
        "RuleEntry(current=0, left=('*',), right=(1,), next_state=0)]\n"
    )


def test_rule_info_rejects_an_e_token_inside_a_side(capsys, tmp_path):
    path = tmp_path / "inner-empty.rule"
    path.write_text("states 3\nradius 2\nsymmetric false\n\n0 | 2 * 1 E -> 2\n")
    assert main(["rule-info", "--rule", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 5: E tokens must be the outermost of each side\n"


def test_rule_fmt_round_trip(capsys, tmp_path):
    path = tmp_path / "aii.rule"
    path.write_text(serialize_rule(automaton_ii()))
    rc = main(["rule-fmt", "--rule", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("states 3\nradius 1\nsymmetric true\n")
    assert "0 | * 1 -> 1" in out


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["no-such-command"]) == 1
    rc = main(["trace", "--rule", "no-such-rule", "--init", "000", "--steps", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "automaton-i" in err  # the unknown-rule error lists known rules


def test_only_an_unknown_rule_lists_the_known_rules(capsys):
    assert main(["search", "--lengths", "4", "--seed", "5"]) == 1
    assert capsys.readouterr().err == "error: --seed only applies to the 3-state-symmetric-sample space\n"
    assert main(["trace", "--rule", "automaton-i", "--init", "000"]) == 1
    err = capsys.readouterr().err
    assert "--steps" in err and "automaton-ii" not in err


def test_trace_random_needs_length(capsys):
    rc = main(["trace", "--rule", "automaton-i", "--init", "random:3"])
    assert rc == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("length", ["-2", "0"])
def test_trace_rejects_a_length_below_one(capsys, length):
    rc = main(["trace", "--rule", "automaton-i", "--init", "random:3", "--length", length, "--steps", "3"])
    assert rc == 1
    assert f"error: --length must be at least 1, not {length}\n" in capsys.readouterr().err


def test_parse_initial_rejects_a_length_below_one():
    for spec in ("random:3", "uniform:1", "[0^n]", "0"):
        with pytest.raises(ValueError, match="^--length must be at least 1, not -2$"):
            parse_initial(spec, -2, 3)


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["trace", "--help"]) == 0
    assert "--steps" in capsys.readouterr().out


def test_python_dash_m_runs_the_cli_from_a_checkout():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = lambda *args: subprocess.run(  # noqa: E731
        [sys.executable, "-m", "filaments", *args], env=env, capture_output=True, text=True, timeout=60
    )
    result = run("--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: filaments")
    # The process exits with main()'s return code, here a usage error.
    assert run("no-such-command").returncode == 1
