"""The README's command examples stay valid configurations.

Every ``slowmol <experiment> ... --set key=value`` line of the README's
``sh`` blocks is loaded with ``load_config`` in-process; nothing is run.
"""

import re
import shlex
from pathlib import Path

from slowmol.config import EXPERIMENTS, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The argument lists of the ``slowmol`` lines in README's sh blocks,
    with ``\\`` continuations joined and comments dropped."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.M | re.S)
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "slowmol":
                commands.append(words[1:])
    return commands


def overrides_of(args: list[str]) -> list[str]:
    """The config overrides a command line sets, as ``cli.main`` builds them."""
    out = []
    it = iter(args[1:])
    for word in it:
        if word == "--set":
            out.append(next(it))
        elif word == "--force":
            out.append("run.force=true")
        else:
            assert word == "--out", word
            next(it)
    return out + [f"experiment={args[0]}"]


def test_every_readme_example_loads():
    commands = readme_commands()
    # the four runs the package documents, plus the K-Rb velocity floor
    assert {args[0] for args in commands} >= {"groupvel", "imbalance", "mediums",
                                              "store", "gpe-split"}
    for args in commands:
        assert args[0] in EXPERIMENTS, args
        config = load_config(None, overrides_of(args))
        assert config.experiment == args[0]
