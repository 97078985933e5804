"""README's examples run as written: its Python blocks and the one-line
commands of its Command line section, whose printed outputs are their
stdout."""

import json
import re
import shlex
from pathlib import Path

from iqtheta.cli import main

_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(text: str, lang: str) -> list[str]:
    """The fenced code blocks of text in the language lang."""
    return [code for tag, code in re.findall(r"^```(\w+)\n(.*?)^```$", text, re.M | re.S)
            if tag == lang]


_COMMAND_LINE = _README[_README.index("\n## Command line\n"):]

# the shell lines of the Command line section
_COMMANDS = [line for block in _blocks(_COMMAND_LINE, "sh") for line in block.splitlines()]


def _printed(capsys, code: str) -> list[str]:
    exec(compile(code, "README.md", "exec"), {})
    return capsys.readouterr().out.splitlines()


def test_python_blocks_print_what_their_comments_say(capsys):
    quick_start, presets = _blocks(_README, "python")
    # the theta value, the group orders, then the verdict and its residual
    lines = _printed(capsys, quick_start)
    assert lines[1] == "4 1"
    assert lines[2].split()[0] == "True"
    assert _printed(capsys, presets) == ["27", "True"]


def test_commands_exit_zero(capsys):
    one_line = [line for line in _COMMANDS if line.startswith("iqtheta ")
                and not line.endswith("\\") and "@relation.json" not in line]
    assert len(one_line) == 8
    for line in one_line:
        assert main(shlex.split(line)[1:]) == 0, line
        capsys.readouterr()


def test_printed_output_is_the_commands_stdout(capsys):
    # a json block right after a one-command sh block is that command's
    # stdout, read as JSON
    pairs = re.findall(r"^```sh\n(iqtheta [^\n]*)\n```\n\n```json\n(.*?)^```$",
                       _COMMAND_LINE, re.M | re.S)
    assert [line.split()[1] for line, _ in pairs] == ["eval", "decompose", "decompose"]
    for line, printed in pairs:
        assert main(shlex.split(line)[1:]) == 0, line
        assert json.loads(capsys.readouterr().out) == json.loads(printed), line


def test_piped_build_round_trips_through_verify(capsys, tmp_path, monkeypatch):
    # build | python3 -c '...' writes the spec to relation.json, which
    # verify --spec @relation.json reads back
    build = next(line for line in _COMMANDS if line.endswith("\\"))
    verify = next(line for line in _COMMANDS if "@relation.json" in line)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(build[:build.index("|")])[1:]) == 0
    spec = json.loads(capsys.readouterr().out)["spec"]
    (tmp_path / "relation.json").write_text(json.dumps(spec))
    assert main(shlex.split(verify)[1:]) == 0
    assert json.loads(capsys.readouterr().out)
