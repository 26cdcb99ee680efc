"""CLI tests."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import COMMANDS, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(repro.__file__).resolve().parents[1])


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out and "fig17" in out


def test_unknown_figure(capsys):
    assert main(["fig99"]) == 2
    err = capsys.readouterr().err
    assert "unknown figure" in err


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0


def test_requires_target():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_all_figures_registered():
    from repro.cli import _figure_runners

    runners = _figure_runners()
    expected = {"fig01", "fig02", "fig03", "fig04", "fig06", "fig07",
                "fig08", "fig09", "fig10", "fig12", "fig13", "fig14",
                "fig15", "fig16", "fig17"}
    assert set(runners) == expected


# ------------------------------------------------------------- command table

def _every_command():
    for name, command in COMMANDS.items():
        yield pytest.param([name], id=name)
        for sub in command.subcommands or ():
            yield pytest.param([name, sub], id=f"{name} {sub}")


@pytest.mark.parametrize("words", _every_command())
def test_command_help_exits_0_without_numpy(words):
    """Every entry of the table has a ``--help`` that runs in the stdlib
    tier (DESIGN.md §8), in a fresh interpreter."""
    code = ("import sys, repro.cli\n"
            "try:\n"
            f"    repro.cli.main({[*words, '--help']!r})\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise AssertionError('--help did not exit')\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert f"usage: repro {' '.join(words)}" in proc.stdout
    assert proc.stdout.rstrip().endswith("False")


def test_list_and_help_name_every_command(capsys):
    assert main(["list"]) == 0
    listed = capsys.readouterr().out
    helped = build_parser().format_help()
    for name, command in COMMANDS.items():
        for text in (listed, helped):
            assert f"  {name:<9} {command.help}" in text


# -------------------------------------------------- flags no engine reads

@pytest.mark.parametrize("argv, flag", [
    (["sweep", "--engine", "packet-batch", "--shards", "3"], "--shards"),
    (["sweep", "--engine", "packet-batch", "--path-pool", "5"], "--path-pool"),
    (["sweep", "--engine", "packet-batch", "--topologies", "vl2"],
     "--topologies"),
    (["sweep", "--engine", "packet-batch", "--link-delay-ms", "100"],
     "--link-delay-ms"),
    (["sweep", "--engine", "packet-batch", "--dtype", "float32"], "--dtype"),
    (["sweep", "--path-pool", "5"], "--path-pool"),
    (["sweep", "--engine", "fluid-equilibrium", "--shards", "2",
      "--path-pool", "5"], "--shards, --path-pool"),
    (["sweep", "--hosts", "10"], "--hosts"),
    (["sweep", "--engine", "fluid-equilibrium", "--loss-rate", "0.01"],
     "--loss-rate"),
    (["campaign", "fig12", "--paper-scale", "--seeds", "1"], "--seeds"),
    (["campaign", "fig12", "--paper-scale", "--subflows", "1"], "--subflows"),
    (["campaign", "fig12", "--paper-scale", "--duration", "1"], "--duration"),
    (["campaign", "fig12", "--paper-scale", "--dt", "0.01"], "--dt"),
    # Runs at --jobs 1, and sharded runs, execute in-process.
    (["campaign", "fig12", "--run-timeout", "5"], "--run-timeout"),
    (["sweep", "--shards", "2", "--jobs", "2", "--run-timeout", "5"],
     "--run-timeout"),
])
def test_a_flag_the_run_would_not_read_exits_2(argv, flag, tmp_path, capsys):
    assert main([*argv, "--cache-dir", str(tmp_path)]) == 2
    assert f"error: {flag}: " in capsys.readouterr().err
    assert not (tmp_path / "campaign.log.jsonl").exists()


@pytest.mark.parametrize("argv, build", [
    (["sweep"], lambda c: c.subflow_sweep_campaign(
        ["bcube"], algorithm="lia", engine="fluid", link_delay=0.001)),
    (["sweep", "--link-delay-ms", "2.5", "--dtype", "float32"],
     lambda c: c.subflow_sweep_campaign(
         ["bcube"], algorithm="lia", link_delay=0.0025,
         params={"dtype": "float32"})),
    (["sweep", "--engine", "packet-batch"], lambda c: c.ec2_sweep_campaign(
        algorithm="lia", n_hosts=40, loss_rate=1e-3, duration=1.0,
        tick=2e-3)),
    (["sweep", "--engine", "packet-batch", "--hosts", "8", "--dt", "0.004"],
     lambda c: c.ec2_sweep_campaign(algorithm="lia", n_hosts=8, tick=0.004)),
    (["campaign", "fig13", "--seeds", "3", "--duration", "2"],
     lambda c: c.figure_campaign(["fig13"], seeds=[3], duration=2.0)),
])
def test_unset_flags_keep_the_builders_defaults(argv, build, monkeypatch):
    import repro.campaign as campaign
    from repro import cli

    built = []
    monkeypatch.setattr(cli, "_execute_campaign",
                        lambda args, spec, **kw: built.append(spec) or 0)
    assert main(argv) == 0
    assert ([r.content_hash() for r in built[0].runs]
            == [r.content_hash() for r in build(campaign).runs])


@pytest.mark.parametrize("argv, loss_rate", [
    (["--selftest"], 0.02),
    (["--selftest", "--loss", "0"], 0.0),
    (["--selftest", "--loss", "0.05"], 0.05),
])
def test_selftest_loss_defaults_to_2_percent_and_honours_0(
        argv, loss_rate, monkeypatch):
    import inspect

    import repro.transport.client as client

    seen = {}

    async def no_transfer(**kwargs):
        seen.update(kwargs)
        raise ConnectionError("no transfer in this test")

    # The fetch parser reads the builder's defaults for its help text.
    no_transfer.__kwdefaults__ = client.loopback_selftest.__kwdefaults__
    defaults = {k: p.default for k, p in
                inspect.signature(client.loopback_selftest).parameters.items()}
    monkeypatch.setattr(client, "loopback_selftest", no_transfer)
    assert main(["fetch", *argv]) == 1
    assert {**defaults, **seen}["loss_rate"] == loss_rate
    assert seen["loss_seed"] == 42


def test_fetch_and_serve_loss_default_to_zero(monkeypatch):
    import inspect

    from repro.transport.client import fetch
    from repro.transport.server import TransportServer

    for argv in (["fetch"], ["serve"]):
        assert build_parser(argv[0]).parse_args([]).loss is None
    assert inspect.signature(fetch).parameters["loss_rate"].default == 0.0
    assert (inspect.signature(TransportServer).parameters["loss_rate"].default
            == 0.0)
    assert build_parser("serve").parse_args([]).loss_seed is None


# ------------------------------------------ command lines in CI and the docs

_SHELL_OPERATORS = {"|", "||", "&", "&&", ";", ">", ">>", "<"}


def _repro_command_lines(path: str, fenced: bool):
    """``(argv, id)`` for every ``python -m repro`` line in ``path``: all
    of it, or (``fenced``) its bash/console/sh code blocks only.
    Backslash continuations join; a shell operator ends the command."""
    in_shell, logical, start = not fenced, "", 0
    lines = (ROOT / path).read_text(encoding="utf-8").splitlines()
    for number, line in enumerate(lines, 1):
        if fenced and line.startswith("```"):
            in_shell = not in_shell and line[3:].strip() in ("bash", "console",
                                                             "sh")
            continue
        if not in_shell:
            continue
        start = start or number
        logical += line
        if logical.endswith("\\"):
            logical = logical[:-1] + " "
            continue
        match = re.search(r"python -m repro\b(.*)", logical)
        if match:
            argv = []
            for token in shlex.split(match.group(1), comments=True):
                if token in _SHELL_OPERATORS:
                    break
                argv.append(token)
            yield pytest.param(argv, id=f"{path}:{start}")
        logical, start = "", 0


#: The documents whose shell blocks show ``python -m repro`` lines, each
#: with the fewest lines its scan must find (DESIGN.md shows its command
#: lines inline, none in a shell block).
_DOC_FLOORS = {"docs/USAGE.md": 20, "README.md": 4, "docs/BENCHMARKS.md": 9,
               "docs/OBSERVABILITY.md": 4, "docs/TRANSPORT.md": 3,
               "DESIGN.md": 0}


@pytest.mark.parametrize("argv", [
    *_repro_command_lines(".github/workflows/ci.yml", fenced=False),
    *(line for doc in _DOC_FLOORS
      for line in _repro_command_lines(doc, fenced=True)),
])
def test_documented_command_lines_parse(argv):
    """Each command line CI runs or a document shows parses with today's
    flags, so a dropped or renamed flag fails here, not in a live job."""
    from repro.cli import _figure_runners

    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv[1:] if command else argv)
    except SystemExit as exc:
        pytest.fail(f"'repro {' '.join(argv)}' does not parse (exit {exc.code})")
    if command is None:
        assert set(args.targets) <= {*_figure_runners(), "all"}


def test_the_command_line_scan_finds_both_files():
    """CI's lines and each document's, every file above its floor."""
    ci = list(_repro_command_lines(".github/workflows/ci.yml", fenced=False))
    assert len(ci) >= 20
    assert ["claims"] in [p.values[0] for p in ci]
    for doc, floor in _DOC_FLOORS.items():
        assert len(list(_repro_command_lines(doc, fenced=True))) >= floor, doc
