"""One traced cold cli call: wrap every divproj layer, then run ``divproj.cli.main``.

Usage: ``python -X importtime bench/cli_child.py SPANS.json -- CLI ARGS...``

The report goes to stdout and the exit code is the cli's, as with
``python -m divproj.cli``; the spans and counters of the call are written to
SPANS.json when the call ends.
"""

import json
import os
import sys
import time

start = time.perf_counter()
import divproj.cli  # noqa: E402  (the import is the first thing measured)

imported = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402


def main(argv) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        print("usage: cli_child.py SPANS.json -- CLI ARGS...", file=sys.stderr)
        return 2
    rec = tracing.Recorder()
    rec.op = 0
    rec.record(tracing.CLI_IMPORT, start, imported)
    patches = tracing.install(rec)
    rec.enter(tracing.CLI_HANDLER)
    try:
        code = divproj.cli.main(cli_args)
    finally:
        rec.exit()
        tracing.uninstall(patches)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(rec.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
