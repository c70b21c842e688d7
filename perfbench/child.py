"""Run one benchmark job in a fresh interpreter and report its timings.

Usage (by run.py only): ``child.py <report fd> <spec json>``.  The spec holds
the job's call and the pass mode (``plain``, ``trace`` or ``peak``).  The
report written to the fd holds monotonic clock readings (comparable with the
parent's on Linux), the library call's result and any trace; the program's
own stdout, stderr and exit code pass through.
"""

import json
import os
import sys
import time


def _isotypic_projectors(pc, group, n, d):
    import numpy

    g = pc.make_named_group(group, n)
    table = pc.character_table(g)
    total = 0
    for mu in range(len(table.irreps)):
        total = total + pc.isotypic_projector(g, d, mu, table=table)
    residual = float(abs(total - numpy.eye(d**n)).max())
    return {"irreps": len(table.irreps), "residual": residual}


def _ambient_multiplicities(pc, group, n, d):
    mults = pc.ambient_multiplicities(pc.make_named_group(group, n), d, per_orbit=True)
    return {
        "total": sum(mults.values),
        "orbit_rows": len(mults.by_orbit),
        "orbit_total": sum(sum(row) for row in mults.by_orbit),
    }


LIBRARY_JOBS = {
    "orbits": lambda pc, group, n, d: {"orbits": len(pc.orbits(pc.make_named_group(group, n), d))},
    "isotypic_projectors": _isotypic_projectors,
    "ambient_multiplicities": _ambient_multiplicities,
}


def probe() -> dict:
    """Versions and the kernel backend that actually runs."""
    import numpy
    import permchannel.kernels

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import numba  # noqa: F401

        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "jit_enabled": getattr(permchannel.kernels, "JIT_ENABLED", "absent"),
        "numba_imports": numba_imports,
    }


def main() -> int:
    fd, spec = int(sys.argv[1]), json.loads(sys.argv[2])
    report = {}
    rc = 0
    try:
        if spec.get("probe"):
            report["probe"] = probe()
            return 0
        import permchannel
        import permchannel.cli

        report["t_setup"] = time.monotonic()
        tracer = None
        if spec["mode"] != "plain":
            import tracer as tracing

            tracer = tracing.Tracer() if spec["mode"] == "trace" else tracing.PeakTracer()
            tracer.install()
        call = spec["call"]
        report["t_start"] = time.monotonic()
        try:
            if "argv" in call:
                rc = permchannel.cli.main(call["argv"])
            else:
                args = {k: v for k, v in call.items() if k != "lib"}
                report["result"] = LIBRARY_JOBS[call["lib"]](permchannel, **args)
            sys.stdout.flush()
        finally:
            report["t_done"] = time.monotonic()
            if tracer is not None:
                report["trace"] = tracer.report()
    finally:
        with os.fdopen(fd, "w") as fh:
            json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
