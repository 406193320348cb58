"""The command-line interface: every subcommand runs and reports."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "Demo HIT" in out
    assert "worker-0" in out


def test_imagenet_command(capsys):
    assert main(["imagenet"]) == 0
    out = capsys.readouterr().out
    assert "gold quality" in out
    assert "total gas" in out


def test_fees_command(capsys):
    assert main(["fees"]) == 0
    out = capsys.readouterr().out
    assert "Table III" in out
    assert "MTurk" in out
    # A clean run records no dynamic operations — and says so.
    assert "Dynamic operations (GasReport.extras): none" in out


def test_audit_command(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "mass-rejecter" in out
    assert "rejects 100%" in out


def test_incentives_command(capsys):
    assert main(["incentives"]) == 0
    out = capsys.readouterr().out
    assert "copy-paste" in out
    assert "naive transparent chain" in out


def test_serve_command(capsys):
    assert main(["serve", "--tasks", "3", "--stagger", "1"]) == 0
    out = capsys.readouterr().out
    assert "Session engine trace" in out
    assert "all_committed" in out
    assert "finalized" in out
    assert "req-2=done" in out
    assert "settled 3 tasks: 3 workers paid, 3 rejected" in out


def test_serve_command_simultaneous_arrivals(capsys):
    """Stagger 0: the batched five-block schedule, straight from serve."""
    assert main(["serve", "--tasks", "2", "--stagger", "0"]) == 0
    out = capsys.readouterr().out
    assert "chain height: 5 blocks" in out


def test_serve_command_is_seeded_and_reproducible(capsys):
    """Same --seed, same bytes — answer sampling and protocol randomness
    both run off the seed."""
    assert main(["serve", "--tasks", "3", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["serve", "--tasks", "3", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["serve", "--tasks", "3", "--seed", "12"]) == 0
    other_seed = capsys.readouterr().out
    assert other_seed != first


def test_serve_command_stragglers_surface_extras(capsys):
    """--stragglers makes a reveal miss its deadline; the burned gas is
    rendered from GasReport.extras instead of vanishing."""
    assert main(["serve", "--tasks", "3", "--stragglers", "1"]) == 0
    out = capsys.readouterr().out
    assert "late-reveal:t0/w0" in out
    assert "Dynamic operations" in out


def test_simulate_command(capsys):
    assert main(["simulate", "--preset", "poisson", "--seed", "3",
                 "--tasks", "6"]) == 0
    out = capsys.readouterr().out
    assert "Scenario 'poisson' (seed 3)" in out
    assert "tasks settled" in out
    assert "commit->finalize latency" in out
    assert "Top earners" in out


def test_simulate_command_json_is_reproducible(capsys):
    argv = ["simulate", "--preset", "burst", "--seed", "5", "--tasks", "6",
            "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert '"tasks_published"' in first


def test_simulate_command_rejects_unknown_preset():
    from repro.errors import ProtocolError

    with pytest.raises(ProtocolError):
        main(["simulate", "--preset", "nope"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_simulate_out_writes_the_canonical_report(tmp_path, capsys):
    out_file = str(tmp_path / "report.json")
    assert main(["simulate", "--preset", "poisson", "--seed", "3",
                 "--tasks", "4", "--out", out_file]) == 0
    capsys.readouterr()
    import json

    with open(out_file) as handle:
        report = json.loads(handle.read())
    assert report["scenario"] == "poisson"
    assert report["seed"] == 3
    assert report["tasks_published"] == 4
    assert report["total_gas"] > 0


def test_node_init_and_status(tmp_path, capsys):
    state_dir = str(tmp_path / "node")
    assert main(["node", "init", "--state-dir", state_dir,
                 "--fund", "alice=500"]) == 0
    out = capsys.readouterr().out
    assert "initialized node state" in out
    assert "state_root" in out
    assert main(["node", "status", "--state-dir", state_dir]) == 0
    out = capsys.readouterr().out
    assert "height" in out and "state root" in out


def test_node_init_refuses_an_initialized_directory(tmp_path):
    from repro.store import StoreError

    state_dir = str(tmp_path / "node")
    assert main(["node", "init", "--state-dir", state_dir]) == 0
    with pytest.raises(StoreError):
        main(["node", "init", "--state-dir", state_dir])


def test_serve_state_dir_keeps_the_marketplace_alive(tmp_path, capsys):
    """Two serve invocations share one chain: height accumulates and
    the task-name serial never collides."""
    state_dir = str(tmp_path / "node")
    assert main(["serve", "--tasks", "2", "--state-dir", state_dir]) == 0
    first = capsys.readouterr().out
    assert "node state saved" in first
    assert main(["serve", "--tasks", "2", "--seed", "9",
                 "--state-dir", state_dir]) == 0
    second = capsys.readouterr().out
    assert "resumed node at height 7" in second
    assert "settled 2 tasks" in second
    assert main(["node", "status", "--state-dir", state_dir]) == 0
    status = capsys.readouterr().out
    assert "| 14" in status  # both runs' blocks on one chain


def test_simulate_checkpoint_and_node_resume(tmp_path, capsys):
    state_dir = str(tmp_path / "sim")
    assert main(["simulate", "--preset", "poisson", "--seed", "7",
                 "--tasks", "4", "--state-dir", state_dir,
                 "--checkpoint-every", "5", "--json"]) == 0
    first = capsys.readouterr().out
    assert "node state saved" in first
    assert main(["node", "resume", "--state-dir", state_dir,
                 "--json"]) == 0
    resumed = capsys.readouterr().out
    assert "Resumed scenario 'poisson' (seed 7)" in resumed
    # The resumed-from-checkpoint report matches the original run's.
    def json_block(text):
        return text[text.index("{") : text.rindex("}") + 1]

    assert json_block(resumed) == json_block(first)


def test_simulate_checkpoint_every_requires_state_dir(capsys):
    assert main(["simulate", "--preset", "poisson", "--tasks", "2",
                 "--checkpoint-every", "4"]) == 2
    assert "--state-dir" in capsys.readouterr().err


def test_simulate_refuses_an_existing_state_dir(tmp_path, capsys):
    state_dir = str(tmp_path / "node")
    assert main(["node", "init", "--state-dir", state_dir]) == 0
    capsys.readouterr()
    assert main(["simulate", "--preset", "poisson", "--tasks", "2",
                 "--state-dir", state_dir]) == 2
    assert "already holds node state" in capsys.readouterr().err


def test_log_json_lines_name_the_cli_logger(capsys):
    import json

    assert main(["serve", "--tasks", "1", "--log-json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert {json.loads(line)["logger"] for line in lines} == {"repro.cli"}
