"""Runs one `mt` command in a fresh interpreter with the span tracer installed.

    python3 cli_child.py AGGREGATE_JSON -- MT_ARGS...

Imports `mtlab.cli` first so the tracer rebinds its names too, then calls
`mtlab.cli.main(MT_ARGS)` and writes the tracer's aggregate.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    out_path, sep, mt_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py AGGREGATE_JSON -- MT_ARGS...")
    import mtlab.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = mtlab.cli.main(mt_args)
    finally:
        tracer.active = False
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.aggregate(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
