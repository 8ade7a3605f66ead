"""The README names only what the package holds: its "Package layout"
table names what each module holds, every backticked dotted name rooted in
the package resolves, every test and ROADMAP item its claims ledger cites
exists, every command and flag it shows is one the CLI takes, and it lists
the files each command writes. ROADMAP's source-size figure is the
source's line count. The measured S × M table that sets the draw-path
thresholds reads the same in README and in the `bitstream` docstring, and
the thresholds follow it."""

import argparse
import dataclasses
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import scbnn
import test_cli
from scbnn import bitstream, cli

README = Path(__file__).resolve().parent.parent / "README.md"
ROADMAP = README.parent / "ROADMAP.md"
#: Backticked names that are not identifiers of their row's module.
NOT_IDENTIFIERS = {"scbnn.cli": {"scbnn"}}  # the command's name
MODULES = {info.name for info in pkgutil.iter_modules(scbnn.__path__)}


def _layout_rows() -> list[tuple[str, list[str]]]:
    """(module, backticked names of its contents cell) per table row."""
    section = README.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    rows = []
    for line in section.splitlines()[1:]:
        if line.startswith("## "):
            break
        cells = line.split("|")
        if len(cells) == 4 and (module := re.fullmatch(r"\s*`(scbnn\.\w+)`\s*", cells[1])):
            rows.append((module[1], re.findall(r"`([^`]+)`", cells[2])))
    return rows


def _resolves(module, name: str) -> bool:
    if hasattr(module, name):
        return True
    classes = [c for c in vars(module).values() if inspect.isclass(c) and c.__module__ == module.__name__]
    return any(
        hasattr(c, name) or (dataclasses.is_dataclass(c) and name in {f.name for f in dataclasses.fields(c)})
        for c in classes
    )


def test_table_lists_every_module():
    # One row per module file of the source tree but __init__: none left
    # out, none twice and none for a module that is gone.
    files = {f"scbnn.{path.stem}" for path in (README.parent / "src" / "scbnn").glob("*.py")} - {"scbnn.__init__"}
    assert files == {f"scbnn.{name}" for name in MODULES}
    assert sorted(module for module, _ in _layout_rows()) == sorted(files)


@pytest.mark.parametrize("module_name, names", _layout_rows())
def test_named_identifiers_exist(module_name, names):
    module = importlib.import_module(module_name)
    missing = [
        name for name in names
        if name not in NOT_IDENTIFIERS.get(module_name, ()) and not _resolves(module, name)
    ]
    assert not missing, f"README's {module_name} row names {missing}, which the module does not hold"


def _package_names() -> list[str]:
    """Backticked names outside code blocks, a trailing call dropped, whose
    first dotted part is `scbnn`, a module of the package or a class it
    exports; numpy names and file names (`energy.json`) are left out."""
    roots = {"scbnn", *MODULES, *(name for name, value in vars(scbnn).items() if inspect.isclass(value))}
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    spans = (" ".join(span.split()) for span in re.findall(r"`([^`]+)`", text))
    names = (m[1] for span in spans if (m := re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", span)))
    return sorted({name for name in names if name.split(".")[0] in roots and not name.endswith((".json", ".csv"))})


def _resolves_dotted(name: str) -> bool:
    parts, obj = name.split("."), scbnn
    if parts[0] == "scbnn":
        parts.pop(0)
    if parts and parts[0] in MODULES:
        obj = importlib.import_module(f"scbnn.{parts.pop(0)}")
    for depth, part in enumerate(parts, 1):
        if not hasattr(obj, part):
            # A dataclass field without a default is no class attribute.
            fields = {f.name for f in dataclasses.fields(obj)} if dataclasses.is_dataclass(obj) else set()
            return depth == len(parts) and part in fields
        obj = getattr(obj, part)
    return True


def test_backticked_package_names_resolve():
    names = _package_names()
    assert {"StreamKey.derive_seeds", "scnn._GRID_BYTES", "cli.HASH_GAPS", "scbnn.scgates.counting"} <= set(names)
    missing = [name for name in names if not _resolves_dotted(name)]
    assert not missing, f"README names {missing}, which the package does not hold"


def _ledger_section() -> str:
    return README.read_text(encoding="utf-8").split("## Paper claims and their checks", 1)[1].split("\n## ", 1)[0]


def _ledger_test_ids() -> list[str]:
    """The `tests/...::...` ids of the "Paper claims and their checks" section."""
    return re.findall(r"`(tests/[^`]+::[^`]+)`", _ledger_section())


def _case_ids(function) -> set[str]:
    """The ids given to the cases of a test function's parametrize marks."""
    marks = (mark for mark in getattr(function, "pytestmark", ()) if mark.name == "parametrize")
    return {case.id for mark in marks for case in mark.args[1] if getattr(case, "id", None)}


def _names_a_test_function(test_id: str) -> bool:
    """`test_id` names a test function, and a case of it with an id when it ends in `[id]`."""
    path, *names = test_id.split("::")
    names[-1], bracket, case = names[-1].partition("[")
    if not (README.parent / path).is_file():
        return False
    obj = importlib.import_module(Path(path).stem)
    for name in names:
        obj = getattr(obj, name, None)
    return inspect.isfunction(obj) and names[-1].startswith("test_") and (not bracket or case[:-1] in _case_ids(obj))


def test_claims_ledger_names_existing_tests():
    ids = _ledger_test_ids()
    assert ids, "the claims ledger cites no tests"
    missing = [test_id for test_id in ids if not _names_a_test_function(test_id)]
    assert not missing, f"the claims ledger cites {missing}, which name no test function"


def test_mutation_column_names_every_mutation_case():
    # Each row's last cell names tests/test_mutations.py cases only, and every
    # case of that file is named in some row, as caught or as a survivor.
    rows = [line.split(" | ") for line in _ledger_section().splitlines() if line.startswith("| ") and "tests/" in line]
    assert rows and all(len(row) == 5 for row in rows), "every ledger row needs its five cells"
    cited = {test_id for row in rows for test_id in re.findall(r"`(tests/[^`]+)`", row[-1])}
    assert all(test_id.startswith("tests/test_mutations.py::") for test_id in cited), cited
    module = importlib.import_module("test_mutations")
    cases = set()
    for name, function in vars(module).items():
        if name.startswith("test_") and inspect.isfunction(function):
            test_id = f"tests/test_mutations.py::{name}"
            cases |= {f"{test_id}[{case}]" for case in _case_ids(function)} or {test_id}
    assert cited == cases, f"named but no case: {sorted(cited - cases)}; not named: {sorted(cases - cited)}"


def test_claims_ledger_cites_roadmap_items():
    # A re-anchor that prunes or renumbers an item the ledger still cites fails here.
    table = "\n".join(line for line in _ledger_section().splitlines() if line.startswith("|"))
    cited = set(re.findall(r"\bitem (\d+)", table))
    assert cited, "the claims ledger table cites no ROADMAP item"
    headings = set(re.findall(r"^### (\d+)\.", ROADMAP.read_text(encoding="utf-8"), flags=re.M))
    missing = sorted(cited - headings, key=int)
    assert not missing, f"the claims ledger cites items {missing}, which ROADMAP.md has no heading for"


def _sh_commands() -> list[list[str]]:
    """The arguments of every `scbnn` command in the README's sh blocks,
    continuation lines joined."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = (shlex.split(line, comments=True) for line in lines)
    return [argv[1:] for argv in commands if argv[:1] == ["scbnn"]]


def test_readme_commands_parse(capsys):
    commands = _sh_commands()
    assert len(commands) >= 10
    refused = []
    for argv in commands:
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            refused.append(f"scbnn {shlex.join(argv)}: {capsys.readouterr().err.strip().splitlines()[-1]}")
    assert not refused, f"README shows commands the CLI refuses: {refused}"


def test_backticked_flags_are_cli_options():
    subcommands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {flag for parser in subcommands.choices.values() for flag in parser._option_string_actions}
    spans = re.findall(r"^```.*?^```|`[^`]+`", README.read_text(encoding="utf-8"), flags=re.S | re.M)
    flags = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", "\n".join(spans))) - {"--no-build-isolation"}
    assert "--to-scnn" in flags
    unknown = sorted(flags - options)
    assert not unknown, f"README names {unknown}, which no subcommand takes"


def test_output_files_are_what_each_command_writes():
    # test_cli.py checks OUTPUT_FILES against each command's --out-dir; the
    # README lists their union per command.
    intro = "Each command writes these files to its `--out-dir`, and no others:"
    block = README.read_text(encoding="utf-8").split(intro, 1)[1].split("\n\n", 2)[1]
    listed = {item[1]: set(re.findall(r"`(\w+\.(?:json|csv))`", item[2]))
              for item in re.finditer(r"^- `(\w+)[^`]*`: (.*(?:\n  .*)*)", block, flags=re.M)}
    written = {}
    for command, files in test_cli.OUTPUT_FILES.items():
        written.setdefault(command.split()[0], set()).update(files)
    assert listed == written


def test_roadmap_size_figure_is_the_source_size():
    figure = re.search(r"`wc -l src/scbnn/\*\.py`, (\d+) lines now", ROADMAP.read_text(encoding="utf-8"))
    lines = sum(path.read_bytes().count(b"\n") for path in (README.parent / "src" / "scbnn").glob("*.py"))
    assert figure, "ROADMAP aim 2 states no source size"
    assert int(figure[1]) == lines, f"ROADMAP aim 2 says {figure[1]} lines; src/scbnn/*.py has {lines}"


def _time_table(text: str) -> dict[tuple[int, int], tuple[str, str]]:
    """{(S, M): (array ms, re-keyed ms)} of the S × M table of milliseconds
    per call in `text`: the lines from its "S ... M = 1" header to the next
    blank line."""
    header, *rows = re.search(r"^[ |]*S[ |]+M = 1 .*(?:\n.*\S.*)*", text, flags=re.M)[0].splitlines()
    Ms = [int(M) for M in re.findall(r"M = (\d+)", header)]
    table = {}
    for row in rows:
        if S := re.match(r"[ |]*(\d+)\b", row):
            pairs = re.findall(r"(\d+\.\d+) / (\d+\.\d+)", row)
            assert len(pairs) == len(Ms), f"row {row!r} has {len(pairs)} cells for {len(Ms)} columns"
            table.update({(int(S[1]), M): pair for M, pair in zip(Ms, pairs)})
    return table


def test_draw_path_thresholds_follow_the_measured_table():
    # The array path is the faster one exactly where `_blocks` takes it: at
    # M <= _ARRAY_MAX_M in rows of at least _ARRAY_MIN_S streams, nowhere in
    # smaller rows.
    table = _time_table(bitstream.__doc__)
    assert len(table) >= 20
    assert _time_table(README.read_text(encoding="utf-8")) == table
    wrong = [
        (S, M) for (S, M), (array, rekeyed) in table.items()
        if (float(array) < float(rekeyed)) != (S >= bitstream._ARRAY_MIN_S and M <= bitstream._ARRAY_MAX_M)
    ]
    assert not wrong, f"at (S, M) = {wrong} the table's faster path is not the one `_blocks` takes"
