"""The two argv readers: plain argv read from the grammar table, everything else through argparse.

The golden file holds ``main(argv)``'s exit code, stdout and stderr for help
and usage errors, captured at ``COLUMNS=80`` before plain argv bypassed
argparse; every case must still come out byte for byte.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import permchannel
from permchannel import cli
from permchannel.cli import main

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden" / "cli_argparse.json").read_text())["cases"]
LONG_FORM = next(case for case in GOLDEN if case["name"] == "count long form")
PARSER = cli.build_parser()
COMMANDS = list(cli.GRAMMAR)
FLAGS = sorted({flag for _, options in cli.GRAMMAR.values() for flag in options})
VALUES = [
    "cyclic", "dihedral", "symmetric", "classical", "quantum", "ancilla", "all", "json", "csv", "table",
    "0", "2", "3", "12", "+3", " 4", "4_0", "٣", "x", "bogus", "path.txt", "a=b", "count",
]  # fmt: skip
ODD_TOKENS = [
    "-h", "--help", "-1", "-4", "-", "--", "", "junk", "--bogus", "--gro", "--grou", "--group-f", "--g",
    "--n-", "--n-m", "--unsafe", "--form", "--mo", "--o", "--h", "-n", "--N",
]  # fmt: skip


def argparse_vars(argv):
    """``vars`` of argparse's namespace for argv, or None where argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_argparse_path_output_is_unchanged(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (case["code"], case["stdout"], case["stderr"])


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--group", "cyclic", "--n", "4", "--d", "2", "--mo", "all", "--unsafe"],
        ["count", "--group", "cyclic", "--n=4", "--d", "2"],
        ["count", "--group=cyclic", "--n", "4", "--d=2"],
    ],
    ids=["abbreviations", "n=4", "group= and d="],
)
def test_abbreviations_and_equals_forms_match_the_long_form(capsys, argv):
    assert cli.read_plain_argv(argv) is None  # left to argparse
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, LONG_FORM["stdout"], "")


@st.composite
def token_lists(draw):
    """Mostly a command first, then flags, values, abbreviations, ``=`` forms, help, negatives and junk."""
    equals = st.builds("{}={}".format, st.sampled_from(FLAGS), st.sampled_from(VALUES))
    token = st.one_of(
        st.sampled_from(FLAGS), st.sampled_from(VALUES), st.sampled_from(ODD_TOKENS), equals, st.text(max_size=3)
    )
    first = st.one_of(st.sampled_from(COMMANDS), token)
    return [draw(first)] + draw(st.lists(token, max_size=9))


@given(token_lists())
@example(["count", "--n", "-4"])
@example(["count", "--n", ""])
@example(["count", "--group-file", ""])
@example(["count", "--unsafe-bounds", "4"])
@example(["scaling", "--n", "3", "--n-max", "5"])
@example(["encode", "--out", "--d"])
@example(["simulate", "--out", "x"])
@example(["count", "--n", "1" * 5000])  # past the interpreter's int conversion limit
@settings(max_examples=400, deadline=None)
def test_plain_reader_agrees_with_argparse_or_defers(argv):
    ns = cli.read_plain_argv(argv)
    if ns is not None:
        assert vars(ns) == argparse_vars(argv)


@st.composite
def plain_argv(draw):
    """A command, then exact ``--flag value`` pairs (valid values) and switches."""
    command = draw(st.sampled_from(COMMANDS))
    options = cli.GRAMMAR[command][1]
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(options)), max_size=8)):
        opt = options[flag]
        if opt.type is bool:
            argv.append(flag)
        elif opt.choices:
            argv += [flag, draw(st.sampled_from(opt.choices))]
        elif opt.type is int:
            argv += [flag, str(draw(st.integers(0, 10**6)))]
        else:
            argv += [flag, draw(st.text(min_size=0, max_size=6).filter(lambda v: not v.startswith("-")))]
    return argv


@given(plain_argv())
@settings(max_examples=300, deadline=None)
def test_plain_reader_reads_every_plain_argv_as_argparse_does(argv):
    ns = cli.read_plain_argv(argv)
    assert ns is not None
    assert vars(ns) == argparse_vars(argv)


def run_fresh(argv):
    """main(argv) in a fresh interpreter: exit code, stdout, and which of argparse, gettext, locale it imported."""
    script = (
        "import sys\n"
        "from permchannel.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "sys.stdout.flush()\n"
        "print(code, *[m for m in ('argparse', 'gettext', 'locale') if m in sys.modules], file=sys.stderr)\n"
    )
    src = str(Path(permchannel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120)
    code, *modules = done.stderr.splitlines()[-1].split()
    return int(code), done.stdout, modules


def test_plain_run_leaves_argparse_gettext_and_locale_unimported():
    code, out, modules = run_fresh(["count", "--group", "cyclic", "--n", "4", "--d", "2"])
    assert (code, out, modules) == (0, LONG_FORM["stdout"], [])
    code, out, modules = run_fresh(["count", "--group", "cyclic", "--n=4", "--d", "2"])
    assert (code, out) == (0, LONG_FORM["stdout"])
    assert "argparse" in modules  # the = form went through argparse
