import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each line's count, as tools/loc.py should read it: C a code line, R a raw
# line only. 21 raw lines, 8 of them code.
FIXTURE = [
    ("R", '"""A module docstring'),
    ("R", 'on two lines."""'),
    ("R", ""),
    ("C", "import os  # a comment after code"),
    ("R", ""),
    ("R", "# a comment line"),
    ("C", "def scale(a):"),
    ("R", '    """A function docstring."""'),
    ("R", "    # an indented comment"),
    ("R", ""),
    ("C", "    total = (a +"),
    ("C", "             os.sep.count('/')"),
    ("C", "             )"),
    ("R", "    'a bare string, not the first statement, counts as a docstring'"),
    ("C", "    text = '''a string"),
    ("C", "    in an expression'''"),
    ("C", "    return total, text"),
    ("R", ""),
    ("R", '"""A bare string at the end'),
    ("R", 'of the module."""'),
    ("R", "   "),
]


def test_loc_counts_raw_and_code_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text("".join(line + "\n" for _, line in FIXTURE))
    raw, code = load_tool("loc").counts(str(path))
    assert (raw, code) == (21, 8)
    assert code == sum(kind == "C" for kind, _ in FIXTURE)



def test_loc_counts_a_last_line_without_a_newline(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text("x = 1\ny = 2")
    assert load_tool("loc").counts(str(path)) == (2, 2)
