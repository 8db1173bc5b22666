"""Print raw and code line counts for each file of src/agecnn, and the totals.

A code line holds at least one token other than a comment, a docstring, an
indent or a line break, as Python's ``tokenize`` reads it; a docstring is a
string that stands alone as a statement. Blank lines count as raw lines only.

Usage: python tools/loc.py [directory]   (default: src/agecnn beside this file)
"""

import os
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def counts(path):
    """(raw lines, code lines) of one Python source file."""
    with open(path, "rb") as fh:
        raw = len(fh.read().splitlines())
        fh.seek(0)
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)]
    code = set()
    for i, tok in enumerate(tokens):
        if tok.type in _SKIPPED:
            continue
        before = tokens[i - 1].type if i else None
        after = tokens[i + 1].type if i + 1 < len(tokens) else None
        if tok.type == tokenize.STRING and before in _STATEMENT_START \
                and after in (tokenize.NEWLINE, tokenize.ENDMARKER):
            continue  # a docstring, or any string standing alone as a statement
        code.update(range(tok.start[0], tok.end[0] + 1))
    return raw, len(code)


def main(argv):
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "agecnn")
    total_raw = total_code = 0
    print(f"{'raw':>6} {'code':>6}  file")
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            raw, code = counts(os.path.join(root, name))
            total_raw += raw
            total_code += code
            print(f"{raw:>6} {code:>6}  {name}")
    print(f"{total_raw:>6} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
