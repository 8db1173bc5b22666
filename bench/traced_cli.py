"""Run one agecnn CLI command with the per-layer wrappers installed.

    python3 bench/traced_cli.py SPANS_JSON <agecnn arguments...>

The wrappers live in this process only. Spans are kept in memory and
written to SPANS_JSON after the command returns; the exit code is the
command's.
"""

import sys

import per_layer
from agecnn import cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = per_layer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.restore()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
