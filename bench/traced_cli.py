"""Run one tacloc CLI command with spans around each layer's public calls.

Usage: python traced_cli.py SPANS_JSON <tacloc arguments...>

Behaves like the ``tacloc`` console script and exits with its code.
The spans go to SPANS_JSON when the command returns.
"""

import time

T0 = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402

T1 = tracing.now()


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    # the tracer's own import, then tacloc's, which every CLI run pays
    tracer.add("trace.import", T0, T1)
    with tracer.span("cli.import"):
        import tacloc.cli
    with tracer.span("trace.install"):
        tracer.install()
    with tracer.span("cli.main"):
        code = tacloc.cli.main(argv)
    t_dump = tracing.now()
    spans = json.dumps(tracer.spans)
    dump = json.dumps([t_dump, tracing.now()])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write('{"dump": %s, "spans": %s}' % (dump, spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
