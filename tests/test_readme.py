"""The README's command examples stay valid configurations, and the library
names it quotes exist.

Every ``slowmol <experiment> ... --set key=value`` line of the README's
``sh`` blocks is loaded with ``load_config`` in-process; nothing is run.
"""

import re
import shlex
from pathlib import Path
from types import ModuleType

import slowmol
import slowmol.cli  # noqa: F401  (loads every module of the package)
from slowmol.config import EXPERIMENTS, load_config, serialize_config

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


def readme_spans() -> list[str]:
    """The inline code spans of README's prose, fenced blocks left out."""
    prose = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    return re.findall(r"`([^`\n]+)`", prose)


def _modules() -> dict:
    """The package's modules, by their names inside it."""
    return {name: mod for name, mod in vars(slowmol).items() if isinstance(mod, ModuleType)}


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an attribute of the package: its first part
    found in ``slowmol`` or in one of its modules, each later part an
    attribute of the one before."""
    first, *rest = dotted.split(".")
    for root in (slowmol, *_modules().values()):
        obj = getattr(root, first, None)
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is not None:
            return True
    return False


def readme_references() -> set[str]:
    """The library names that README quotes: a dotted ``module.name`` or
    ``Class.name`` span, and the name before each ``(`` of a call.  Config
    keys, file names, other packages' names and ``<name>`` placeholders are
    not references."""
    keys = {line.partition(" = ")[0]
            for line in serialize_config(load_config(None, [])).splitlines()}
    modules = set(_modules())
    refs = set()
    for span in readme_spans():
        if re.search(r"<\w+>", span):
            continue
        refs.update(re.findall(r"([A-Za-z_][\w.]*)\(", span))
        dotted = re.fullmatch(r"([A-Za-z_]\w*)(\.[A-Za-z_]\w*)+", span)
        if (dotted and span not in keys and not re.search(r"\.(txt|csv|gp|py|md)$", span)
                and (dotted[1] in modules or dotted[1][0].isupper())):
            refs.add(span)
    return refs


def test_every_library_name_in_the_readme_resolves():
    refs = readme_references()
    # both kinds are found: a dotted name, and calls with and without a module
    assert {"reports.ReportWriter", "medium.slowdown", "ReportWriter.finish",
            "slowdown"} <= refs
    assert [ref for ref in sorted(refs) if not _resolves(ref)] == []


def test_a_stale_name_would_not_resolve():
    for stale in ("write_report", "reports.write_report", "FeasibilityReport.compression_ok",
                  "gpe.gray_soliton", "reports.FeasibilityReport",
                  "FeasibilityReport.summary_lines"):
        assert not _resolves(stale)
    assert _resolves("FeasibilityReport.passes") and _resolves("dynamics.storage_fidelity")
