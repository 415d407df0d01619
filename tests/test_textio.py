"""The shared line grammar, and a fuzz test of every text input the CLI
reads: mutated files end in exit 0, 1 or 2, never a traceback."""

import contextlib
import io
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tspred import cli, textio

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def read(data, **kwargs):
    return list(textio.directives(data, "f.txt", **kwargs))


def test_lines_split_as_text_mode_open_splits_them():
    data = b"a 1\r\nb 2\rc 3\n\n# d 4\n  e   5 6  \nf"
    assert read(data) == [(1, "a", "1"), (2, "b", "2"), (3, "c", "3"),
                          (6, "e", "5 6"), (7, "f", "")]


def test_key_split_at_sep():
    assert read(b" a = 1 = 2 \n# b = 3\nc=\n", sep="=") == [
        (1, "a", "1 = 2"), (3, "c", "")]


def test_line_without_sep_refused():
    with pytest.raises(ValueError, match="f.txt line 2: 'junk line' has no"):
        read(b"a = 1\njunk line\n", sep="=")


@pytest.mark.parametrize("once, refused", [(None, True), (("b",), False),
                                           (("a",), True)])
def test_second_line_of_a_key_refused_when_once(once, refused):
    data = b"a 1\nb 2\na 3\n"
    if refused:
        with pytest.raises(KeyError, match="f.txt line 3: a second 'a' line"):
            read(data, once=once, error=KeyError)
    else:
        assert [key for _, key, _ in read(data, once=once)] == ["a", "b", "a"]


@pytest.mark.parametrize("reader", [textio.lines, textio.directives])
def test_non_utf8_byte_refused_with_the_callers_error(reader):
    # the position counts from the start of the file
    data = b"label,f\r\n+1,0.5\r-1,\xff\n"
    with pytest.raises(KeyError, match="f.txt line 3: 'utf-8' codec can't "
                                       "decode byte 0xff in position 19"):
        list(reader(data, "f.txt", error=KeyError))
    assert textio.lines(data[:-2], "f.txt") == ["label,f", "+1,0.5", "-1,"]


def test_rows_number_each_row_by_its_file_line():
    table, numbers = textio.rows(["1,2", "", " -3 , 4.5e1"], "f.csv", start=2)
    assert table.tolist() == [[1.0, 2.0], [-3.0, 45.0]]
    assert numbers == [2, 4]


@pytest.mark.parametrize("lines, message", [
    ([], "f.csv: no samples"),
    (["", ""], "f.csv: no samples"),
    # numpy's number grammar, which Python's float() is not: it reads 1_0
    (["1,2", "", "3,1_0"],
     "f.csv line 4: could not convert string '1_0' to float64 in column 2"),
    (["1,2", "3,"],
     "f.csv line 3: could not convert string '' to float64 in column 2"),
    (["1,2", "3,4,5", "x"],
     "f.csv line 3: the number of columns changed from 2 to 3"),
], ids=["no lines", "blank lines", "1_0", "empty cell", "ragged"])
def test_rows_refused_with_the_callers_error(lines, message):
    with pytest.raises(KeyError, match=re.escape(message)):
        textio.rows(lines, "f.csv", error=KeyError, start=2)


# ---------------------------------------------------------------------------
# Fuzz: mutated inputs through cli.main
# ---------------------------------------------------------------------------

# a few scenarios per grid, so that a mutated run stays short
SMALL_GRIDS = {
    fixture: f"faults = {fault}\nclearing_cycles = 5.0, 7.5, 10.0\n"
             "load_levels = 0.8, 1.0, 1.2, 1.3\n"
             "step = 0.004166666666666667\nhorizon = 0.5\nseed = 7\n"
    for fixture, fault in (("smib", "fault"), ("three_machine", "bus1"))}
TOKENS = [b"", b"0", b"-2", b"1e308", b"nan", b"abc", b"#", b"=", b",",
          b"\xff", b"\r"]


def run_quietly(argv):
    """cli.main's exit code, the grammar's SystemExit included; any other
    exception propagates and fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Valid inputs of every format: a small SMIB KB, a model trained on
    it, a file of its rows and a predict --config file."""
    root = tmp_path_factory.mktemp("fuzz")
    files = {f"{name}.sys": (FIXTURES / f"{name}.sys").read_bytes()
             for name in SMALL_GRIDS}
    for name, text in SMALL_GRIDS.items():
        (root / f"{name}.grid").write_text(text)
        files[f"{name}.grid"] = text.encode()
    assert run_quietly(["generate", "--model", str(FIXTURES / "smib.sys"),
                        "--grid", str(root / "smib.grid"),
                        "--out", str(root / "kb.csv")]) == cli.EXIT_OK
    assert run_quietly(["optimize", "--kb", str(root / "kb.csv"),
                        "--out", str(root), "--hidden", "4",
                        "--population", "4", "--iterations", "1",
                        "--split-fraction", "0.5"]) == cli.EXIT_OK
    for name in ("kb.csv", "kb.meta", "model.elm"):
        files[name] = (root / name).read_bytes()
    files["rows.csv"] = b"".join(files["kb.csv"].splitlines(True)[:3])
    files["predict.cfg"] = b"model = model.elm\ninput = rows.csv\n"
    return files


def command(target):
    """The argv that reads the file `target`, run from the directory that
    holds the inputs."""
    if target.endswith((".sys", ".grid")):
        name = target.split(".")[0]
        return ["generate", "--model", f"{name}.sys", "--grid",
                f"{name}.grid", "--out", "out/kb.csv"]
    if target.startswith("kb."):
        return ["evaluate", "--kb", "kb.csv", "--model", "model.elm",
                "--out", "out", "--split-fraction", "0.5"]
    if target == "predict.cfg":
        return ["predict", "--config", "predict.cfg"]
    return ["predict", "--model", "model.elm", "--input", "rows.csv"]


@st.composite
def mutated(draw, data):
    """`data` after one to three line or byte edits."""
    lines = data.splitlines(keepends=True) or [b""]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "repeat", "swap", "token",
                                   "bytes", "cut"]))
        if op == "drop" and len(lines) > 1:
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "token":
            parts = re.split(rb"([\s,=]+)", lines[i])
            k = 2 * draw(st.integers(0, len(parts) // 2))
            parts[k] = draw(st.sampled_from(TOKENS))
            lines[i] = b"".join(parts)
        elif op == "bytes":
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = (lines[i][:pos] + draw(st.binary(min_size=1,
                                                        max_size=3))
                        + lines[i][pos:])
        elif op == "cut":
            text = b"".join(lines)
            lines = text[:draw(st.integers(0, len(text)))].splitlines(
                keepends=True) or [b""]
    return b"".join(lines)


TARGETS = ["smib.sys", "three_machine.sys", "smib.grid",
           "three_machine.grid", "kb.csv", "kb.meta", "model.elm",
           "rows.csv", "predict.cfg"]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_cleanly(base, data):
    target = data.draw(st.sampled_from(TARGETS), label="target")
    spoiled = data.draw(mutated(base[target]), label="content")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        for name, content in base.items():
            Path(d, name).write_bytes(spoiled if name == target else content)
        os.chdir(d)
        try:
            code = run_quietly(command(target))
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
