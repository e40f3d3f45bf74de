"""Child process of the traced cli-cold pass: the CLI with spans installed.

    python3 perfbench/traced_cli.py SPANS_FILE ARGS...

Installs the spans of `spans.py` on the imported package, calls
`straightedge.cli.main(ARGS)`, writes the aggregates and spans to
``SPANS_FILE`` and exits with the CLI's status.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    out = Path(sys.argv[1])
    import straightedge
    import straightedge.cli

    tracer = spans.Tracer()
    tracer.install(straightedge)
    tracer.enabled = True
    try:
        return straightedge.cli.main(sys.argv[2:])
    finally:
        tracer.enabled = False
        sys.stdout.flush()
        snapshot = tracer.snapshot()
        snapshot["spans"] = tracer.spans
        out.write_text(json.dumps(snapshot))


if __name__ == "__main__":
    sys.exit(main())
