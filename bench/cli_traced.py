"""Run one dtcausal CLI command with spans recorded, as a traced cli_corpus request.

Usage: PYTHONPATH=src python bench/cli_traced.py SPANS_OUT ARG...

Times the import of ``dtcausal.cli``, wraps the package's public functions,
runs ``dtcausal.cli.main(ARG...)``, writes the spans and counts as JSON to
SPANS_OUT and exits with the command's exit code.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.request(0, root=None):
        with tracer.span("cli.import"):
            import dtcausal.cli
        tracer.install()
        try:
            with tracer.span("cli.main"):
                code = dtcausal.cli.main(argv)
        finally:
            tracer.uninstall()
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
