"""Run one abelerg CLI request with span tracing, in its own interpreter.

Usage: python3 perfbench/traced_main.py TOTALS_JSON ARGV...

The cold-start workload runs this in place of ``python -m abelerg ARGV``
during a traced pass.  It installs the tracer after ``import abelerg``,
runs the request, writes the tracer's totals to TOTALS_JSON and exits with
the request's exit code.  ``abelerg`` must be importable (PYTHONPATH).
"""

import importlib
import json
import sys

import spans


def main():
    totals_path, argv = sys.argv[1], sys.argv[2:]
    modules = {name: importlib.import_module(f"abelerg.{name}")
               for name in spans.TRACED}
    with spans.Tracer() as tracer:
        tracer.install(modules)
        code = modules["cli"].main(argv)
    with open(totals_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.totals(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
