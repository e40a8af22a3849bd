"""Run the glmavg CLI with its layer entry points traced and write the spans out.

Usage: python3 perfbench/traced_cli.py SPANS_JSON <glmavg arguments...>

The whole ``glmavg.cli.main`` call is the ``cli.main`` span, so its self
time is argument parsing, CSV loading and the atomic write.
"""

import json
import sys
from pathlib import Path

import glmavg.cli

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer:
        code = tracer.span("cli.main", "cli", glmavg.cli.main, argv)
    Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    sys.exit(main())
