"""Every `$ figurate ...` example in README.md, run and compared byte for byte,
and the README's library example, run in process.

An example is a line starting with "$ " inside a ```sh block; its expected
output is the lines after it, up to a blank line, the next example or the
end of the block. `echo "..." | figurate ...` feeds the echoed text to
stdin, and `figurate ... | figurate ...` the first command's stdout. stderr
is merged into stdout, as a terminal shows them.

In the ```python block under "## Library", a line `expr  # expected` claims
that expr evaluates to what expected evaluates to; the other lines are run
as they stand.
"""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def readme_examples():
    examples = []
    in_sh = False
    current = None
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
            current = None
        elif in_sh and line.startswith("$ "):
            current = (line[2:], [])
            examples.append(current)
        elif in_sh and current is not None and line:
            current[1].append(line)
        else:
            current = None
    return [(command, "".join(out + "\n" for out in output)) for command, output in examples]


EXAMPLES = readme_examples()


def run(command: str, stderr=subprocess.STDOUT) -> str:
    stdin = None
    if "|" in command:
        source, command = command.split("|")
        words = shlex.split(source)
        if words[0] == "echo":
            stdin = " ".join(words[1:]) + "\n"
        else:
            stdin = run(source, stderr=None)  # a pipe carries stdout only
    words = shlex.split(command)
    assert words[0] == "figurate", command
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "figurate", *words[1:]],
        input=stdin,
        stdout=subprocess.PIPE,
        stderr=stderr,
        text=True,
        env=env,
    )
    return proc.stdout


def test_examples_are_found():
    commands = [command for command, _ in EXAMPLES]
    assert len(commands) >= 10
    assert any(command.startswith("echo ") for command in commands)
    assert any(command.startswith("figurate ") and "|" in command for command in commands)


@pytest.mark.parametrize(("command", "expected"), EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_example_output(command, expected):
    assert run(command) == expected


def library_example() -> str:
    """The ```python block under "## Library" in README.md."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("\n## Library\n"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_library_example_holds():
    namespace = {}
    pending = []
    claims = 0
    for line in library_example().splitlines():
        expression, _, expected = line.partition("  # ")
        if not expected:
            pending.append(line)
            continue
        exec("\n".join(pending), namespace)
        pending = []
        assert eval(expression, namespace) == eval(expected, namespace), line
        claims += 1
    exec("\n".join(pending), namespace)
    assert claims >= 5
