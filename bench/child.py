"""One benchmark pass in a fresh interpreter, as a ``scpp verify`` call pays.

    python3 bench/child.py --workload W --seed S --pass K --out FILE [--limit N] [--trace]
    python3 bench/child.py --workload W --seed S --pass K --setup-only

Set-up is importing ``scpp`` and ``scpp.cli`` and building the op list;
when it is done the pass prints ``ready`` so the parent can time it.  The
ops then run one after another in this process (one client, closed loop).
Each op's stdout is captured; the outputs, per-op latencies, peak resident
memory and, with ``--trace``, the layer spans are written to ``--out``.

Between ops, at least every ``REFERENCE_EVERY_S`` and after the last op,
the pass times the host speed reference (``reference.py``); each op's
latency is scaled by the samples just before and just after it.  The
measured latencies are kept too, as ``wall_ms``.
"""

import contextlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import scpp  # noqa: E402
import scpp.cli  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE_EVERY_S = 0.25

# the package rebinds the name ``scpp.pfaffian`` to the function of that name
pf = importlib.import_module("scpp.pfaffian")


def _args(argv):
    opts = {"--limit": None, "--out": None, "--trace": False, "--setup-only": False}
    it = iter(argv)
    for flag in it:
        if flag in ("--trace", "--setup-only"):
            opts[flag] = True
        else:
            opts[flag] = next(it)
    return opts


def run_op(argv):
    """Run one op; returns (exit code, stdout, error or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = scpp.cli.main(list(argv))
        error = None
        if argv[0] == "pfaffian":
            # criterion 07: the Pfaffian must also square to the determinant
            p = dict(zip(argv[1::2], argv[2::2]))
            matrix, _ = pf.corollary_matrix(
                p["--case"], int(p["--a"]), int(p["--b"]), int(p["--c1"]), int(p["--c2"])
            )
            value = pf.pfaffian(matrix)
            if value * value != pf.exact_determinant(matrix.entries):
                error = "Pf(M)^2 != det(M)"
    except SystemExit as exc:
        code, error = exc.code, f"SystemExit({exc.code})"
    except Exception as exc:  # an op that raises is a failed op, not a failed pass
        code, error = None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), error


def peak_rss_kb() -> int:
    """This process's own peak resident memory.

    ``ru_maxrss`` is not used where avoidable: across ``execve`` Linux
    carries the parent's peak into it, so a pass started by a large parent
    would report the parent's memory instead of its own.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    opts = _args(argv)
    if Path(scpp.__file__).resolve().parent != ROOT / "src" / "scpp":
        sys.exit(f"scpp imported from {scpp.__file__}, not from this checkout")
    ops = workloads.ops_for(opts["--workload"], int(opts["--seed"]), int(opts["--pass"]))
    if opts["--limit"] is not None:
        ops = ops[: int(opts["--limit"])]
    tracer = None
    if opts["--trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    print("ready", flush=True)
    if opts["--setup-only"]:
        return

    results, wall_ms, first_sample = [], [], []
    samples = [reference.sample()]
    clock = time.perf_counter
    last_sample = clock()
    for k, op in enumerate(ops):
        if clock() - last_sample >= REFERENCE_EVERY_S:
            samples.append(reference.sample())
            last_sample = clock()
        first_sample.append(len(samples) - 1)
        if tracer is not None:
            tracer.op = k
        t0 = clock()
        code, out, error = run_op(op)
        wall_ms.append((clock() - t0) * 1000.0)
        results.append([" ".join(op), None, code, out, error])
    samples.append(reference.sample())
    # op k ran between samples first_sample[k] and first_sample[k] + 1
    for result, ms, k in zip(results, wall_ms, first_sample):
        result[1] = reference.scale(ms, samples[k], samples[k + 1])

    record = {
        "verify_s": sum(r[1] for r in results) / 1000.0,
        "verify_wall_s": sum(wall_ms) / 1000.0,
        "ops": results,
        "wall_ms": wall_ms,
        "reference_s": samples,
        "peak_rss_kb": peak_rss_kb(),
    }
    if tracer is not None:
        record["spans"] = tracer.spans
        record["unobserved"] = tracer.unobserved
    with open(opts["--out"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
