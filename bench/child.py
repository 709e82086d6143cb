"""One spawned benchmark process.

Usage (the runner starts these; ``src`` must be on PYTHONPATH)::

    python3 bench/child.py probe          # import voasurf.cli and exit
    python3 bench/child.py pass < spec    # run one pass of library jobs
    python3 bench/child.py cli ARGV...    # run one CLI command

Every mode first imports ``voasurf.cli``, times one reference probe
(``speed.py``) and writes ``bench-ready T P`` to stderr, T being
``time.monotonic()`` when the import returned and P the probe's
seconds, so the runner can time and scale set-up from spawn to import.
``pass`` reads a JSON spec on stdin and prints one JSON result line on
stdout; a probe follows every job, and each job's time is scaled by the
probes on either side of it and, in an untraced pass, by those sampled
while it ran.  ``cli`` leaves stdout to the command.  When
BENCH_LAYERS_OUT is set it traces the command, writes the layer
statistics there and appends its spans to BENCH_SPANS_OUT; otherwise it
samples the speed while the command runs and ends stderr with
``bench-samples S P1 P2 ...``, S being the seconds the samples took.
"""

import sys
import time

import voasurf.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402

from speed import Sampler, probe, scaled  # noqa: E402
from tracer import Tracer, TraceSetupError  # noqa: E402

READY_PROBE = probe()


class JobTimeout(BaseException):
    """The job ran past its budget (a BaseException so that no handler
    inside the library swallows it)."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_pass(spec: dict) -> dict:
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    # Imported after the wrappers are bound: jobs.py takes the library's
    # functions by name, and must take the wrapped ones.
    from jobs import CheckFailed, run_job

    signal.signal(signal.SIGALRM, _on_alarm)
    # Traced passes leave the samples out, so they cannot add to the
    # layers' self times.
    sampler = None if tracer else Sampler()
    results = []
    before = probe()
    for index, job in enumerate(spec["jobs"]):
        remaining = spec["deadline"] - time.monotonic()
        if remaining <= 0:
            results.append({"s": 0.0, "raw_s": 0.0,
                            "error": "run deadline passed before start"})
            continue
        if tracer is not None:
            tracer.job = index
        error = None
        if sampler is not None:
            sampler.start()
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, min(spec["budget_s"], remaining))
        try:
            run_job(job)
        except JobTimeout:
            error = "over its time budget"
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # the job's failure is a result
            error = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if sampler is not None:
                sampler.stop()
        raw = time.perf_counter() - start
        samples = []
        if sampler is not None:
            raw -= sampler.spent_s
            samples = sampler.probes
        after = probe()
        results.append({"s": scaled(raw, before, *samples, after),
                        "raw_s": raw, "error": error})
        before = after
    out = {"jobs": results}
    if tracer is not None:
        out["layers"] = tracer.summary()
        if spec["spans_out"]:
            tracer.write_spans(spec["spans_out"], {"pass": spec["pass"]})
    return out


def run_cli(argv: list) -> int:
    layers_out = os.environ.get("BENCH_LAYERS_OUT")
    tracer = sampler = None
    if layers_out:
        tracer = Tracer()
        tracer.install()
        tracer.job = int(os.environ.get("BENCH_JOB", "-1"))
    else:
        sampler = Sampler()
        sampler.start()
    sys.argv = ["voasurf"] + argv
    try:
        voasurf.cli.main()
    except SystemExit as exc:
        code = exc.code
    else:
        code = 0
    finally:
        sys.stdout.flush()
        if sampler is not None:
            sampler.stop()
            sys.stderr.write(" ".join(
                ["\nbench-samples"] + [repr(x) for x in
                                       [sampler.spent_s] + sampler.probes])
                + "\n")
        if tracer is not None:
            with open(layers_out, "w") as fh:
                json.dump(tracer.summary(), fh)
            tracer.write_spans(os.environ["BENCH_SPANS_OUT"],
                               {"pass": int(os.environ["BENCH_PASS"])})
    return code


# Exit code telling the runner that tracing could not be set up.
TRACE_BROKEN = 3


def main() -> int:
    sys.stderr.write(f"bench-ready {READY!r} {READY_PROBE!r}\n")
    sys.stderr.flush()
    mode = sys.argv[1]
    try:
        if mode == "probe":
            return 0
        if mode == "pass":
            print(json.dumps(run_pass(json.load(sys.stdin))))
            return 0
        if mode == "cli":
            return run_cli(sys.argv[2:])
    except TraceSetupError as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return TRACE_BROKEN
    sys.stderr.write(f"unknown mode {mode!r}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
