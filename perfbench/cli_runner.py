"""Run one scorefusion CLI command with layer tracing installed.

Usage (with src/ and the repository root on PYTHONPATH):

    python3 -m perfbench.cli_runner SPANS_JSON CLI_ARG...

Times the fresh-interpreter import of scorefusion.cli as the span
`cli.import`, installs the layer wrappers, calls `scorefusion.cli.main`
with CLI_ARG..., writes the spans and counts to SPANS_JSON, and exits with
main's return code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from perfbench.tracing import Tracer, installed


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import scorefusion.cli
    tracer.record("cli.import", start, time.perf_counter())
    with installed(tracer) as absent:
        code = scorefusion.cli.main(cli_args)
    doc = tracer.to_doc()
    doc["absent"] = absent
    Path(spans_path).write_text(json.dumps(doc), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
