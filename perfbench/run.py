"""Benchmark runner for polydiag.

    python3 perfbench/run.py --workload produce|audit|oracle --seed N \\
        --seconds S --trace 0|1

Runs from the root of a source checkout and imports polydiag from its
``src/`` directory.  Each job is one ``polydiag`` command, run in-process
through ``polydiag.cli.main(argv)`` with stdout and stderr captured, so
interpreter start-up is not timed.  The loop is closed with one client: one
process, one thread, each job starting when the previous one ends.  It runs
whole passes over the workload's job mix until ``--seconds`` have gone by,
so every run measures the same mix of work.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` a first, untraced pass gives the throughput the tracing
overhead is measured against, then spans are recorded around the calls into
polydiag's public functions, and the per-layer metrics are reported per
pass.  Every run checks every job's exit code and output, re-verifies each
produced certificate after the timed loop, and exits 1 if any check failed.
Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from time import perf_counter

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = ("arith", "polymat", "diagonal", "certificates", "positivity", "cli")
# Set-up runs at least SETUP_MIN times, and again while the repeats so far
# took under SETUP_BUDGET_S, so a short set-up still gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 11, 2.0

# The speed of a shared host can swing by 2x within a minute, unseen by the
# guest (no steal time is reported).  So the runner times _reference(), a
# fixed exact-arithmetic loop of its own code, before and after every job and
# every set-up, and reports each timing scaled to nominal host speed:
# t * REF_NOMINAL_S / (median of the reference times around it).  The raw
# timings go to the record file beside them.
REF_NOMINAL_S = 0.0004
_REF_A = {(i, j): Fraction(i - 2 * j + 1, j + 2) for i in range(5) for j in range(2)}
_REF_B = {(i, j): Fraction(3 * i + j - 5, i + 3) for i in range(2) for j in range(5)}

END_TO_END = ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb", "cert_bytes")

# (metric, unit, better); per pass over the mix, from the traced run
PER_LAYER = (
    ("arith.mul.calls", "count", "lower"),
    ("arith.mul.self_s", "s", "lower"),
    ("arith.mul.term_pairs", "count", "lower"),
    ("arith.mul.max_out_terms", "count", "lower"),
    ("arith.add.calls", "count", "lower"),
    ("arith.add.self_s", "s", "lower"),
    ("arith.exact_div.calls", "count", "lower"),
    ("arith.exact_div.self_s", "s", "lower"),
    ("arith.evaluate.calls", "count", "lower"),
    ("arith.evaluate.self_s", "s", "lower"),
    ("arith.parse_polynomial.calls", "count", "lower"),
    ("arith.parse_polynomial.self_s", "s", "lower"),
    ("arith.str.calls", "count", "lower"),
    ("arith.str.self_s", "s", "lower"),
    ("polymat.matmul.calls", "count", "lower"),
    ("polymat.matmul.self_s", "s", "lower"),
    ("polymat.matmul.total_s", "s", "lower"),
    ("polymat.eq.calls", "count", "lower"),
    ("polymat.eq.total_s", "s", "lower"),
    ("polymat.determinant.calls", "count", "lower"),
    ("polymat.determinant.total_s", "s", "lower"),
    ("polymat.generic_rank.calls", "count", "lower"),
    ("polymat.generic_rank.total_s", "s", "lower"),
    ("polymat.parse_matrix.total_s", "s", "lower"),
    ("polymat.format_matrix.total_s", "s", "lower"),
    ("diagonal.standard_form_diagonalize.calls", "count", "lower"),
    ("diagonal.standard_form_diagonalize.total_s", "s", "lower"),
    ("diagonal.single_path_diagonalize.calls", "count", "lower"),
    ("diagonal.single_path_diagonalize.total_s", "s", "lower"),
    ("diagonal.diagonalization_bundle.calls", "count", "lower"),
    ("diagonal.diagonalization_bundle.total_s", "s", "lower"),
    ("diagonal.block_step.calls", "count", "lower"),
    ("diagonal.block_step.total_s", "s", "lower"),
    ("diagonal.branches", "count", "lower"),
    ("diagonal.vacuous_branches", "count", "lower"),
    ("certificates.diag_certificate_failures.calls", "count", "lower"),
    ("certificates.diag_certificate_failures.total_s", "s", "lower"),
    ("certificates.bundle_certificate_failures.calls", "count", "lower"),
    ("certificates.bundle_certificate_failures.total_s", "s", "lower"),
    ("certificates.equiv_witness_failures.calls", "count", "lower"),
    ("certificates.equiv_witness_failures.total_s", "s", "lower"),
    ("certificates.sos_matrix_failures.calls", "count", "lower"),
    ("certificates.sos_matrix_failures.total_s", "s", "lower"),
    ("certificates.membership_failures.calls", "count", "lower"),
    ("certificates.membership_failures.total_s", "s", "lower"),
    ("certificates.format.total_s", "s", "lower"),
    ("certificates.parse_certificate.total_s", "s", "lower"),
    ("certificates.bytes_in", "B", "lower"),
    ("certificates.bytes_out", "B", "lower"),
    ("certificates.verifications_per_cert", "ratio", "lower"),
    ("positivity.psd_rational.calls", "count", "lower"),
    ("positivity.psd_rational.total_s", "s", "lower"),
    ("positivity.eval_matrix.calls", "count", "lower"),
    ("positivity.eval_matrix.total_s", "s", "lower"),
    ("positivity.psd_on_grid.total_s", "s", "lower"),
    ("positivity.check_bundle_equivalence.total_s", "s", "lower"),
    ("positivity.grid_points", "count", "lower"),
    ("positivity.psd_share", "ratio", "higher"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.main.exit_0", "count", "higher"),
    ("cli.main.exit_1", "count", "lower"),
    ("cli.main.exit_2", "count", "lower"),
    ("cli.main.exit_3", "count", "lower"),
    ("cli.main.exit_4", "count", "lower"),
    ("cli.main.exit_5", "count", "lower"),
    ("trace.jobs_per_s", "1/s", "higher"),
    ("trace.overhead", "ratio", "lower"),
)
_STATS = ("calls", "total_s", "self_s")


def _reference():
    """Time one fixed product of two 10-term rational polynomials."""
    t0 = perf_counter()
    out = {}
    for e1, c1 in _REF_A.items():
        for e2, c2 in _REF_B.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return perf_counter() - t0


def adjust(durations, refs):
    """Scale each duration to nominal host speed.

    ``durations[k]`` was timed between ``refs[k]`` and ``refs[k + 1]``; the
    two reference times before it and the two after it give the host's speed.
    """
    return [
        d * REF_NOMINAL_S / statistics.median(refs[max(0, k - 1) : k + 3])
        for k, d in enumerate(durations)
    ]


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


def load_polydiag():
    """Import polydiag afresh from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "polydiag", "__init__.py")):
        raise SetupError(f"no polydiag sources under {SRC}")
    for name in [n for n in sys.modules if n == "polydiag" or n.startswith("polydiag.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("polydiag")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise SetupError(f"polydiag was imported from {package.__file__}, not {SRC}")
    return types.SimpleNamespace(
        package=package, **{m: importlib.import_module(f"polydiag.{m}") for m in MODULES}
    )


def set_up(workload, seed, base):
    """Import, generate the inputs and write them, several times.

    Returns (lib, jobs, input digest, raw seconds per repeat, the same at
    nominal host speed); the last repeat's files are kept.  Each repeat must
    write byte-identical inputs.
    """
    times, adjusted, digests, kept = [], [], [], None
    for rep in range(SETUP_MAX):
        if rep >= SETUP_MIN and sum(times) >= SETUP_BUDGET_S:
            break
        workdir = os.path.join(base, f"setup{rep}")
        os.makedirs(workdir)
        before = [_reference() for _ in range(3)]
        t0 = perf_counter()
        lib = load_polydiag()
        jobs, digest = workloads.build(workload, seed, workdir, lib)
        times.append(perf_counter() - t0)
        after = [_reference() for _ in range(3)]
        adjusted.append(times[-1] * REF_NOMINAL_S / statistics.median(before + after))
        digests.append(digest)
        if kept is not None:
            shutil.rmtree(kept)
        kept = workdir
    if len(set(digests)) != 1:
        raise SetupError(f"set-up repeats wrote different inputs: {digests}")
    return lib, jobs, digests[0], times, adjusted


class Loop:
    """Closed-loop job execution with per-job checks."""

    def __init__(self, jobs, lib):
        self.jobs = jobs
        self.lib = lib
        self.outputs = {}  # job index -> (sha256, certificate text or None)
        self.failures = {}  # (pass, job index) -> reason
        self.passes = 0

    def run_pass(self, tracer=None):
        """One pass over the mix; returns (latencies, reference times, wall)."""
        main_module = self.lib.cli
        latencies = []
        refs = [_reference()]
        t_pass = perf_counter()
        for k, job in enumerate(self.jobs):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job_id = self.passes * len(self.jobs) + k
            with redirect_stdout(out), redirect_stderr(err):
                t0 = perf_counter()
                try:
                    code = main_module.main(list(job.argv))
                except Exception:  # a job's crash is a counted failure, not the end of the run
                    code = "uncaught " + traceback.format_exc(limit=2).strip().splitlines()[-1]
                latencies.append(perf_counter() - t0)
            problem = self._check(k, job, code, out.getvalue())
            if problem:
                self.failures[(self.passes, k)] = problem
            refs.append(_reference())
        self.passes += 1
        return latencies, refs, perf_counter() - t_pass

    def _check(self, k, job, code, text):
        if code != job.exit:
            return f"exit {code!r}, expected {job.exit}"
        if job.stdout is not None and text != job.stdout:
            return "stdout differs from the expected text"
        if job.prefix is not None and not text.startswith(job.prefix):
            return f"stdout does not start with {job.prefix!r}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if k not in self.outputs:
            self.outputs[k] = (digest, text if job.mode else None)
        elif self.outputs[k][0] != digest:
            return "output differs from the first pass"
        return None

    def reverify(self):
        """Re-verify every produced certificate once; outside the timed loop."""
        C, P = self.lib.certificates, self.lib.polymat
        for k, (_digest, text) in sorted(self.outputs.items()):
            job = self.jobs[k]
            if not job.mode:
                continue
            try:
                with open(job.subject, encoding="utf-8") as handle:
                    a = P.parse_matrix(handle.read())
                kind, payload = C.parse_certificate(text)
                if job.mode == "bundle":
                    problems = [] if kind == "bundle" else [f"kind {kind}, expected bundle"]
                    problems = problems or C.bundle_certificate_failures(a, payload)
                    again = C.format_bundle_certificate(payload) if not problems else text
                else:
                    problems = [] if kind == "diag" else [f"kind {kind}, expected diag"]
                    problems = problems or C.diag_certificate_failures(a, payload)
                    again = C.format_diag_certificate(payload) if not problems else text
                if not problems and again != text:
                    problems = ["certificate does not re-format to the same bytes"]
            except Exception as exc:  # an unreadable certificate is a failed job
                problems = [f"re-verification raised {type(exc).__name__}: {exc}"]
            if problems:
                for p in range(self.passes):
                    self.failures[(p, k)] = "produced certificate: " + problems[0]

    def output_digest(self):
        h = hashlib.sha256()
        for k in sorted(self.outputs):
            h.update(f"{k}:{self.outputs[k][0]}\n".encode())
        return h.hexdigest()[:16]

    def cert_bytes_per_pass(self):
        produced = sum(len(text.encode()) for _d, text in self.outputs.values() if text)
        return produced + sum(job.cert_bytes_in for job in self.jobs)


def timed_passes(loop, seconds, tracer=None):
    """Whole passes until ``seconds`` have gone by; at least one.

    Returns (latencies at nominal host speed, raw latencies, raw wall time).
    """
    adjusted, latencies, wall = [], [], 0.0
    while True:
        lat, refs, dt = loop.run_pass(tracer)
        adjusted += adjust(lat, refs)
        latencies += lat
        wall += dt
        if wall >= seconds:
            return adjusted, latencies, wall


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, passes, traced_rate, untraced_rate):
    stats = tracer.summarize()
    counts = tracer.counts
    verifications = sum(stats.get(n, {}).get("calls", 0) for n in spans.VERIFIERS)
    psd_calls = stats.get("positivity.psd_rational", {}).get("calls", 0)
    special = {
        "arith.mul.max_out_terms": counts["arith.mul.max_out_terms"],
        "certificates.verifications_per_cert": (
            verifications / counts["certificates.handled"] if counts["certificates.handled"] else 0
        ),
        "positivity.psd_share": counts["positivity.psd_points"] / psd_calls if psd_calls else 0,
        "trace.jobs_per_s": traced_rate,
        "trace.overhead": untraced_rate / traced_rate,
    }
    out = {}
    for name, unit, _better in PER_LAYER:
        if name in special:
            value = special[name]
        else:
            base, _, stat = name.rpartition(".")
            if stat in _STATS:
                value = stats.get(base, {}).get(stat, 0) / passes
            else:
                value = counts[name] / passes
        out[name] = {"value": value, "unit": unit}
    return out, stats


def split_checks(workload, layer, tracer, stats):
    """Does the traced run show the layer split the workload was chosen for?"""
    checks = {}
    if workload in ("audit", "oracle"):
        checks["diagonal.* reads zero"] = all(
            v["value"] == 0 for k, v in layer.items() if k.startswith("diagonal.")
        )
    if workload in ("produce", "audit"):
        checks["positivity.* reads zero"] = all(
            v["value"] == 0 for k, v in layer.items() if k.startswith("positivity.")
        )
    if workload == "audit":
        group = spans.VERIFIERS + ("certificates.bundle_certificate_failures",)
        verify_s = tracer.inclusive_s(group)
        rival, rival_s = max(
            ((n, s["total_s"]) for n, s in stats.items() if n not in group and n != "cli.main"),
            key=lambda item: item[1],
        )
        checks[f"verification {verify_s:.3f}s is the largest inclusive span (next: {rival} {rival_s:.3f}s)"] = (
            verify_s > rival_s
        )
    if workload == "oracle":
        total = sum(s["self_s"] for s in stats.values())
        share = {n: s["self_s"] / total for n, s in stats.items()}
        oracle = share.pop("positivity.psd_rational", 0) + share.pop("arith.evaluate", 0)
        rival = max(share, key=share.get)
        checks[
            f"psd_rational + evaluate hold {oracle:.0%} of self time (next: {rival} {share[rival]:.0%})"
        ] = oracle > share[rival]
    return checks


def machine_info():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def run(workload, seed, seconds, trace):
    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, f"work-{workload}-{seed}-{os.getpid()}")
    try:
        lib, jobs, input_digest, setup_times, setup_adjusted = set_up(workload, seed, base)
        loop = Loop(jobs, lib)
        tracer = None
        if trace:
            lat, refs, _wall = loop.run_pass()
            untraced_rate = len(lat) / sum(adjust(lat, refs))
            tracer = spans.Tracer()
            tracer.install(lib)
            first_traced = loop.passes
            tracer.active = True
            adjusted, latencies, wall = timed_passes(loop, seconds, tracer)
            tracer.active = False
            traced_passes = loop.passes - first_traced
        else:
            adjusted, latencies, wall = timed_passes(loop, seconds)
        loop.reverify()
    finally:
        shutil.rmtree(base, ignore_errors=True)

    attempted = loop.passes * len(jobs)
    failed = len(loop.failures)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "machine": machine_info(),
        "loop": "closed, 1 client",
        "jobs_per_pass": len(jobs),
        "passes": loop.passes,
        "samples": len(latencies),
        "setup_s_repeats": setup_times,
        "raw": {
            "setup_s": statistics.median(setup_times),
            "jobs_per_s": len(latencies) / wall,
            "job_p50_ms": percentile(latencies, 50) * 1e3,
            "job_p90_ms": percentile(latencies, 90) * 1e3,
        },
        "input_digest": input_digest,
        "output_digest": loop.output_digest(),
        "attempted": attempted,
        "failed": failed,
        "job_fail_ratio": failed / attempted,
        "cert_bytes_out": sum(len(t.encode()) for _d, t in loop.outputs.values() if t),
        "failures": sorted({f"{jobs[k].label}: {why}" for (_p, k), why in loop.failures.items()}),
    }
    if trace:
        rate = len(adjusted) / sum(adjusted)
        metrics, stats = layer_metrics(tracer, traced_passes, rate, untraced_rate)
        record["checks"] = split_checks(workload, metrics, tracer, stats)
        tracer.uninstall()
        tracer.write(os.path.join(OUT, f"spans-{workload}.bin"))
        record["spans"] = len(tracer.start)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_adjusted), "unit": "s"},
            "jobs_per_s": {"value": len(adjusted) / sum(adjusted), "unit": "1/s"},
            "job_p50_ms": {"value": percentile(adjusted, 50) * 1e3, "unit": "ms"},
            "job_p90_ms": {"value": percentile(adjusted, 90) * 1e3, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
            },
            "cert_bytes": {"value": loop.cert_bytes_per_pass(), "unit": "B"},
        }
        record["latency_ms_by_class"] = _by_class(jobs, adjusted)
        record["latencies_ms"] = [round(x * 1e3, 4) for x in latencies]
        record["adjusted_latencies_ms"] = [round(x * 1e3, 4) for x in adjusted]
    record["metrics"] = metrics
    path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    _print_summary(record)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _by_class(jobs, latencies):
    by = {}
    for i, dt in enumerate(latencies):
        by.setdefault(jobs[i % len(jobs)].label, []).append(dt * 1e3)
    return {label: round(statistics.median(v), 3) for label, v in sorted(by.items())}


def _print_summary(r):
    print(
        f"workload {r['workload']} seed {r['seed']} trace {r['trace']}: {r['passes']} passes x "
        f"{r['jobs_per_pass']} jobs, {r['loop']}; nproc {r['machine']['nproc']}, "
        f"python {r['machine']['python']}"
    )
    print(f"  inputs {r['input_digest']}  outputs {r['output_digest']}")
    print(f"  {'job_fail_ratio':52s} {r['job_fail_ratio']:.6g} ratio ({r['failed']} of {r['attempted']} jobs)")
    print(f"  {'cert_bytes_out':52s} {r['cert_bytes_out']} B per pass")
    raw = ", ".join(f"{k} {v:.6g}" for k, v in r["raw"].items())
    print(f"  raw timings, before the host-speed adjustment: {raw}")
    for name, m in r["metrics"].items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    for text, ok in r.get("checks", {}).items():
        print(f"  split {'ok ' if ok else 'NO '} {text}")
    for line in r["failures"][:20]:
        print(f"  FAILED {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
