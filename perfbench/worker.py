"""One measured process: import explaudit, then optionally run one audit.

Usage: python3 perfbench/worker.py SPEC_JSON RESULT_PATH

SPEC_JSON holds ``argv`` (the ``explaudit audit`` arguments, or null for
an import-only probe), ``trace`` (wrap the layers and record spans),
``svg_dir`` and ``spans_path``. The result JSON holds the monotonic time
at which the imports finished, so the caller can time interpreter set-up
from process start, plus the audit's exit code, wall and CPU seconds,
peak resident memory, the host speed during the audit (``HostSpeed``) and,
when traced, the per-layer summary.
"""

import contextlib
import json
import os
import resource
import signal
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from explaudit import cli  # noqa: E402  (imports every layer)

READY = time.monotonic()

# Host-speed sampling: every SAMPLE_PERIOD seconds of the audit, a signal
# handler times SAMPLE_ROUNDS rounds of a fixed loop (about 8 ms).
SAMPLE_PERIOD = 0.2
SAMPLE_ROUNDS = 256
MIN_SAMPLES = 8

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((40, 16))
_W = _rng.standard_normal((16, 8))


def calibrate(rounds):
    """Wall seconds of a fixed loop that mixes what an audit spends its
    time on: small matrix products, a tanh, tiny least-squares solves and
    interpreted Python. The loop runs no program code, so its time
    measures how fast the host runs this process at the moment."""
    t0 = time.perf_counter()
    for _ in range(rounds):
        float(np.tanh(_A @ _W).sum())
        sum(k * k % 7 for k in range(60))
        np.linalg.lstsq(_A[:20, :6], _A[:20, 7], rcond=None)
    return time.perf_counter() - t0


class HostSpeed:
    """Samples the host's speed on the audit's own core while it runs.

    A CPU shared with other machines runs the same work up to 2x slower
    for stretches of a second to minutes. The samples are spread through
    the audit, so their mean reflects the speed the audit itself got.
    Their wall and CPU time is taken out of the audit's.
    """

    def __init__(self):
        self.samples = []
        self.cpu = 0.0

    def _sample(self, signum=None, frame=None):
        c0 = time.process_time()
        self.samples.append(calibrate(SAMPLE_ROUNDS))
        self.cpu += time.process_time() - c0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def round_s(self):
        """Mean seconds per calibration round. Samples are added after the
        audit if it was too short (or traced) to collect MIN_SAMPLES."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return sum(self.samples) / (len(self.samples) * SAMPLE_ROUNDS)


def run_audit(spec):
    tracer = None
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer(spec["audit_id"])
        missing = tracer.install()
    root = tracer.span("cli") if tracer else contextlib.nullcontext()
    # Traced audits are not sampled, so that spans hold only program time.
    speed = HostSpeed()
    sampler = contextlib.nullcontext() if tracer else speed
    calibrate(SAMPLE_ROUNDS)  # warm-up
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with sampler, root:
        code = cli.main(spec["argv"])
    wall = time.perf_counter() - wall0 - sum(speed.samples)
    cpu = time.process_time() - cpu0 - speed.cpu
    in_audit = len(speed.samples)
    result = {"code": code, "wall": wall, "cpu": cpu,
              "rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024,
              "round_s": speed.round_s(), "samples": in_audit}
    if tracer:
        report_dir = spec["argv"][spec["argv"].index("--out") + 1]
        result["svg_code"] = cli.main(["report", report_dir, "--format",
                                       "svg", "--out", spec["svg_dir"]])
        result["layers"] = tracing.summarize(tracer.spans)
        result["spans"] = len(tracer.spans)
        result["missing_boundaries"] = missing
        tracer.write_jsonl(spec["spans_path"])
    return result


def main():
    spec = json.loads(sys.argv[1])
    result = {"ready": READY}
    if spec.get("argv"):
        result.update(run_audit(spec))
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
