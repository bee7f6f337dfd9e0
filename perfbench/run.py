"""Benchmark of ``explaudit audit``, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted --seed 1 --seconds 55 --trace 0

Each audit runs in a fresh worker process (perfbench/worker.py) that
imports explaudit from ``src/`` and calls ``cli.main`` in-process on a CSV
this script generates from ``--seed``. With ``--trace 0`` the script runs
audits until ``--seconds`` is used up and reports end-to-end medians,
with audit times rescaled to a reference host speed (``at_reference_speed``).
With ``--trace 1`` it alternates two untraced and two traced audits, and
reports per-layer self times and counts. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
Run files (inputs, reports, spans) go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

SETUP_PROBES = 7
MIN_AUDITS = 3
TRACED_AUDITS = 2
WORKER_TIMEOUT = 150

END_TO_END_UNITS = {"audit_ref_s": "s", "cpu_ref_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}

# Per-layer metrics reported with --trace 1. Names ending in _s are self
# times in seconds (median over the traced audits), except _incl_s, which
# include the model calls an explainer or PGD search makes. The rest are
# counts that must repeat exactly between audits of the same input.
METHODS = ("GRAD", "GXI", "IG", "IGXI", "LIME", "SHAP")
METRICS = ("comprehensiveness", "sufficiency", "soft_comprehensiveness",
           "soft_sufficiency", "sparsity", "gini", "sensitivity")
PER_LAYER = (
    ["cli.self_s", "dataset.load_s", "dataset.split_s",
     "textmodel.vocab_s", "textmodel.train_s", "textmodel.train_steps",
     "textmodel.predict_s", "textmodel.forward_calls",
     "textmodel.forward_rows", "textmodel.forward_s",
     "textmodel.grad_calls", "textmodel.grad_s"]
    + [f"attribution.{m}_{k}" for m in METHODS
       for k in ("s", "incl_s", "calls")]
    + ["attribution.shap_exact_inputs", "attribution.shap_sampled_inputs",
       "attribution.SHAP_exact_s", "attribution.SHAP_sampled_s"]
    + [f"metrics.{m}_{k}" for m in METRICS for k in ("s", "calls")]
    + ["metrics.sensitivity_explain_calls", "metrics.sensitivity_incl_s",
       "stats.disparity_s", "stats.disparity_tests", "stats.exact_tests",
       "stats.bias_s", "pipeline.self_s", "pipeline.save_s",
       "report.table_s", "report.svg_s", "report.bytes",
       "check.nan_cells", "check.score_cells",
       "trace.audit_s", "trace.untraced_audit_s", "trace.overhead_s",
       "trace.spans", "trace.calibration_round_s"])


def is_time(name):
    return name.endswith("_s")


def unit_of(name):
    if is_time(name):
        return "s"
    return "bytes" if name == "report.bytes" else "count"


# ---------------------------------------------------------------------------
# Machine facts


def blas_facts():
    """(library, thread count) of the OpenBLAS numpy loaded, if any."""
    import numpy  # noqa: F401  (loads the BLAS library)
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                return os.path.basename(path), int(fn())
    return "unknown", None


def machine_facts():
    import numpy
    lib, threads = blas_facts()
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": lib, "blas_threads_default": threads,
            "blas_threads_in_workers": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
            "AUDIT_THREADS": os.environ.get("AUDIT_THREADS", "unset"),
            "AUDIT_THREADS_in_workers": "unset"}


# ---------------------------------------------------------------------------
# Workers


# One BLAS thread per worker. With OpenBLAS's default of one thread per
# core, the second thread spins on tiny solves, doubles CPU use and, on a
# 2-vCPU VM, draws hypervisor steal: the spread of the raw audit time
# across seeds rose from 7% to 31% on the sensitivity workload.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def worker_env():
    """BLAS pinned, AUDIT_THREADS unset, and bytecode caching on, so that
    set-up time is an import from cached bytecode, as for an installed
    package, whatever the caller's environment says."""
    env = dict(os.environ, **BLAS_ENV)
    env.pop("AUDIT_THREADS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_worker(spec, result_path):
    """Start one worker and wait for it. Returns (result, setup seconds)."""
    if os.path.exists(result_path):
        os.remove(result_path)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, WORKER, json.dumps(spec), result_path],
        cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("worker timed out") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           + err.decode(errors="replace")[-2000:])
    with open(result_path, encoding="utf-8") as f:
        result = json.load(f)
    result["stderr"] = err.decode(errors="replace")
    return result, result["ready"] - t0


def dir_digest(path):
    """(sha256 over file names and contents, total bytes) of a directory."""
    h = hashlib.sha256()
    total = 0
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as f:
            data = f.read()
        h.update(name.encode() + b"\0" + data + b"\0")
        total += len(data)
    return h.hexdigest(), total


def exact_tests(report_dir):
    with open(os.path.join(report_dir, "disparity.json"),
              encoding="utf-8") as f:
        return sum(r["mode"] == "exact" for r in json.load(f))


class Bench:
    def __init__(self, workload, seed, out_dir):
        self.spec = wl.WORKLOADS[workload]
        self.out = out_dir
        self.dataset = os.path.join(out_dir, "input.csv")
        self.report_dir = os.path.join(out_dir, "report")
        self.result_path = os.path.join(out_dir, "result.json")
        self.audits = []  # one dict per audit attempted
        self.setup = []
        wl.write_csv(wl.generate_pairs(self.spec["pairs"], seed),
                     self.dataset)

    def probe(self):
        _, setup = run_worker({"argv": None}, self.result_path)
        self.setup.append(setup)

    def audit(self, trace=False):
        k = len(self.audits)
        spec = {"argv": wl.audit_argv(self.spec, self.dataset,
                                      self.report_dir),
                "trace": trace, "audit_id": k,
                "svg_dir": os.path.join(self.out, f"svg{k}"),
                "spans_path": os.path.join(self.out, f"spans{k}.jsonl")}
        record = {"trace": trace, "problems": []}
        self.audits.append(record)
        try:
            result, setup = run_worker(spec, self.result_path)
        except RuntimeError as e:
            record["problems"].append(str(e))
            return record
        self.setup.append(setup)
        record.update(result)
        if result["code"] != 0:
            record["problems"].append(
                f"audit exited {result['code']}: {result['stderr'][-500:]}")
            return record
        if trace and result["svg_code"] != 0:
            record["problems"].append(f"svg render exited "
                                      f"{result['svg_code']}")
        problems, nan_cells, cells = wl.check_output(self.spec,
                                                     self.report_dir)
        record["problems"] += problems
        record["sha256"], record["bytes"] = dir_digest(self.report_dir)
        if trace:
            layers = record["layers"]
            layers["report.bytes"] = record["bytes"]
            layers["stats.exact_tests"] = exact_tests(self.report_dir)
            layers["check.nan_cells"] = nan_cells
            layers["check.score_cells"] = cells
            layers["trace.spans"] = result["spans"]
        return record


def median(values):
    return statistics.median(values) if values else 0.0


# Seconds per round of the worker's calibration loop at the reference
# host speed: a round's time, sampled inside an audit, in the faster
# stretches seen on a 2-vCPU Xeon VM. It only sets the scale.
REF_ROUND_S = 40e-6


def at_reference_speed(audit, key):
    """An audit's wall or CPU seconds rescaled to the host speed at which
    a calibration round takes REF_ROUND_S. The worker samples that speed
    throughout the audit (worker.HostSpeed). On a shared VM the host runs
    the same work up to 2x slower for stretches of seconds to minutes, and
    the rescaling cancels that; changes to the program still show in full,
    because the calibration loop runs no program code."""
    return audit[key] * REF_ROUND_S / audit["round_s"]


def end_to_end(bench):
    """Medians over the run's audits and set-up probes. The raw wall time
    and the calibration are printed beside the reported values."""
    ok = [a for a in bench.audits if not a["problems"]]
    values = {"audit_ref_s": [at_reference_speed(a, "wall") for a in ok],
              "cpu_ref_s": [at_reference_speed(a, "cpu") for a in ok],
              "peak_rss_mb": [a["rss_mb"] for a in ok],
              "setup_s": bench.setup,
              "raw wall_s": [a["wall"] for a in ok],
              "raw calibration_round_us": [1e6 * a["round_s"] for a in ok],
              "speed samples per audit": [a["samples"] for a in ok]}
    for name, vs in values.items():
        if not vs:
            continue
        q = statistics.quantiles(vs, n=4) if len(vs) > 1 else vs * 3
        print(f"{name}: median {median(vs):.4f} q1 {q[0]:.4f} "
              f"q3 {q[2]:.4f} n {len(vs)}")
    return {name: {"value": median(values[name]), "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(bench):
    """Per-layer metrics and the list of counts that did not repeat."""
    traced = [a for a in bench.audits if a["trace"] and not a["problems"]]
    plain = [a["wall"] for a in bench.audits
             if not a["trace"] and not a["problems"]]
    for a in traced:
        a["layers"]["trace.audit_s"] = a["wall"]
        a["layers"]["trace.untraced_audit_s"] = median(plain)
        a["layers"]["trace.overhead_s"] = a["wall"] - median(plain)
        a["layers"]["trace.calibration_round_s"] = a["round_s"]
    metrics, unsteady = {}, []
    for name in PER_LAYER:
        vs = [a["layers"].get(name, 0) for a in traced]
        if is_time(name):
            value = median(vs)
        else:
            value = vs[0] if vs else 0
            if len(set(vs)) > 1:
                unsteady.append(f"{name}: {vs}")
        metrics[name] = {"value": value, "unit": unit_of(name)}
    return metrics, unsteady


def print_layer_table(metrics):
    """Self times, which add up to the traced run, then the other times
    and the counts. Shares are of the traced audit (the SVG render runs
    after it)."""
    total = metrics["trace.audit_s"]["value"]
    partial = ("_incl_s", "_exact_s", "_sampled_s")
    times = sorted(((m["value"], name) for name, m in metrics.items()
                    if is_time(name) and not name.startswith("trace.")),
                   key=lambda vn: (vn[1].endswith(partial), -vn[0]))
    print(f"traced audit {total:.3f} s; self time by layer, then "
          "inclusive and per-mode times:")
    for value, name in times:
        if value > 0:
            print(f"  {name:40s} {value:9.4f} s {100 * value / total:5.1f}%")
    for name, m in metrics.items():
        if not is_time(name) or name.startswith("trace."):
            print(f"  {name:40s} {m['value']}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "explaudit")):
        print(f"no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    facts = machine_facts()
    print("machine: " + json.dumps(facts, sort_keys=True))
    with open(os.path.join(out_dir, "machine.json"), "w",
              encoding="utf-8") as f:
        json.dump(facts, f, indent=1, sort_keys=True)

    bench = Bench(args.workload, args.seed, out_dir)
    bench.probe()  # unmeasured: fills the bytecode cache
    bench.setup.clear()
    for _ in range(SETUP_PROBES):
        bench.probe()

    if args.trace:
        for _ in range(TRACED_AUDITS):  # interleaved, so drift hits both
            bench.audit()
            bench.audit(trace=True)
    else:
        deadline = time.monotonic() + args.seconds
        while True:
            bench.audit()
            walls = [a["wall"] for a in bench.audits if "wall" in a]
            if len(bench.audits) >= MIN_AUDITS and \
                    time.monotonic() + median(walls) > deadline:
                break

    failed = 0
    for k, a in enumerate(bench.audits):
        status = "ok" if not a["problems"] else "FAILED"
        print(f"audit {k} trace={int(a['trace'])} {status} "
              f"wall={a.get('wall', float('nan')):.4f} "
              f"round_us={1e6 * a.get('round_s', float('nan')):.2f} "
              f"sha256={a.get('sha256', '-')}")
        for problem in a["problems"][:20]:
            print(f"  {problem}")
        failed += bool(a["problems"])

    correct = failed == 0
    if args.trace:
        metrics, unsteady = per_layer(bench)
        if failed == 0:
            print_layer_table(metrics)
        for line in unsteady:
            print(f"count did not repeat: {line}")
        correct = correct and not unsteady
        missing = {m for a in bench.audits
                   for m in a.get("missing_boundaries", [])}
        if missing:
            print(f"boundaries not found (layers report 0): "
                  f"{sorted(missing)}")
    else:
        metrics = end_to_end(bench)
    print(json.dumps({"correct": correct, "attempted": len(bench.audits),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
