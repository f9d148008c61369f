"""Run the homsim CLI with the layer tracer installed.

Usage: python3 cli_shim.py SPANS_JSON <sim arguments...>

Behaves like ``python -m homsim.cli <sim arguments...>``, exit code
included, and writes the recorded spans to SPANS_JSON.
"""

import json
import sys
from pathlib import Path

import tracer as tracing


def main() -> None:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    import homsim.cli

    tr = tracing.Tracer()
    tr.install()
    try:
        homsim.cli.main(argv, prog_name="sim")
    finally:
        tr.uninstall()
        spans_path.write_text(
            json.dumps({"spans": tr.spans, "untraced": tr.untraced}), encoding="utf-8"
        )


if __name__ == "__main__":
    main()
