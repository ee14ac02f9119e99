"""One benchmark command in a fresh interpreter.

    python3 perfbench/child.py <trace 0|1> <run id> cli <noncong arguments...>
    python3 perfbench/child.py <trace 0|1> <run id> apscan <p1,p2,...>

The program under test is imported from ``src/`` of the checkout that holds
this file.  ``cli`` calls ``noncong.cli.main``
with the given arguments, exactly as the ``noncong`` console script does;
``apscan`` prints, for each given prime p in the given order, the F_p
Frobenius trace of the twelve surface families of the eight main groups and
the coefficients A_p of the newforms L48 and L432.

The program's stdout is passed through untouched.  As the last line of
stderr the child writes one record, prefixed with ``MARK``: the monotonic
clock reading right after the import, ru_maxrss, the exit code and, when
traced, the spans.
"""

import json
import resource
import sys
import time
from pathlib import Path

MARK = "@perfbench "
ROOT = Path(__file__).resolve().parent.parent


def apscan(noncong, primes):
    groups = [noncong.GROUPS[name] for name in noncong.MAIN_GROUPS]
    families = [(g.name, fam) for g in groups for fam in noncong.surface_families(g)]
    lines = []
    for p in primes:
        for name, fam in families:
            lines.append(f"tr,{name},{fam.label},{p},{noncong.frobenius_trace(fam, p)}\n")
        for tag in ("L48", "L432"):
            c = noncong.newform_an(tag, p).c
            lines.append(f"ap,{tag},{p},{c[0]},{c[1]},{c[2]},{c[3]}\n")
    sys.stdout.write("".join(lines))
    return 0


def main(argv) -> int:
    traced, run_id, mode, rest = argv[0] == "1", argv[1], argv[2], argv[3:]
    sys.path.insert(0, str(ROOT / "src"))
    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer(run_id)
    t0 = time.perf_counter()
    import noncong
    import noncong.cli
    t1 = time.perf_counter()
    imported_at = time.monotonic()
    if tracer:
        tracer.add_span("cli.import", t0, t1)
        tracer.install()
    try:
        if mode == "cli":
            try:
                rc = noncong.cli.main(rest)
            except SystemExit as e:     # as the interpreter would exit
                if e.code is None or isinstance(e.code, int):
                    rc = e.code or 0
                else:
                    print(e.code, file=sys.stderr)
                    rc = 1
        elif mode == "apscan":
            primes = [int(p) for p in rest[0].split(",")]
            rc = tracer.run("bench.apscan", apscan, noncong, primes) if tracer \
                else apscan(noncong, primes)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        sys.stdout.flush()
    finally:
        if tracer:
            tracer.restore()
    record = {"imported_at": imported_at, "rc": rc,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "trace": tracer.export() if tracer else None}
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
