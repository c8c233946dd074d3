"""``python -m repro serve`` with layer spans, for the traced run.

Usage: ``python3 perfbench/serve_traced.py SPANS [--inject SPAN=FRACTION
...] -- <repro serve arguments>``

Installs the layer shims, runs the CLI's ``serve`` command unchanged and,
once the server has drained after SIGTERM, writes the spans to SPANS.
With ``--inject`` and no other shims wanted, pass ``-`` as SPANS.
"""

from __future__ import annotations

import sys

from tracing import ENTRY_POINTS, Tracer

from repro import cli


def main(argv):
    spans_path = argv[0]
    split = argv.index("--")
    injected = {}
    options = argv[1:split]
    for at in range(0, len(options), 2):
        name, fraction = options[at + 1].split("=")
        injected[name] = float(fraction)
    tracer = Tracer(delays=injected)
    if spans_path == "-":
        tracer.install([e for e in ENTRY_POINTS if e[3] in injected])
    else:
        tracer.install()
    code = cli.main(argv[split + 1:])
    if spans_path != "-":
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
