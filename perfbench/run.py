"""Benchmark runner for cutpaste.

    python3 perfbench/run.py --workload caps_k0 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  It generates the workload's inputs from
the seed, starts worker processes (``perfbench/worker.py``) on the
checkout's ``src/``, sends one request at a time (a closed loop with a
single client), times each request, checks every output, and prints the
metrics.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
batch twice, untraced and then traced, checks that both give the same
output digest, and reports the per-layer metrics of the traced pass.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A tail needs at least ten requests beyond it; a run goes on past its
# seconds until it has this many, and until it has the stream's min_cycles.
MIN_REQUESTS = 11
# set-up time is the median of this many fresh workers per run (fresh-worker
# workloads time one per request instead)
SETUP_SAMPLES = 11
# The host's speed drifts by up to 2x over tens of seconds (see README.md).
# Every timed value is scaled by PROBE_NOMINAL_S over the mean duration of
# the worker's probes next to it: time on a host where the probe takes this.
PROBE_NOMINAL_S = 0.1
WORKLOADS = ("caps_k0", "surface_session", "chain_squares")


class Worker:
    """One worker process; set-up time runs from spawn to its ready line."""

    def __init__(self, header: bytes):
        env = dict(os.environ, PYTHONHASHSEED="0")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=env,
        )
        try:
            self.proc.stdin.write(header)
            self.proc.stdin.flush()
            self._recv()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    def _recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, req: dict) -> tuple[dict, float]:
        data = (json.dumps(req) + "\n").encode()
        t0 = time.perf_counter()
        self.proc.stdin.write(data)
        self.proc.stdin.flush()
        resp = self._recv()
        return resp, time.perf_counter() - t0

    def probe(self) -> float:
        resp, _ = self.call({"op": "probe"})
        if not resp["ok"]:
            raise RuntimeError(f"probe failed: {resp['error']}")
        return resp["out"]["probe_s"]

    def close(self) -> dict:
        self.proc.stdin.write(b"null\n")
        self.proc.stdin.flush()
        final = self._recv()
        self.proc.stdin.close()
        self.proc.wait()
        return final

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class Pass:
    """Results of running a list of cycles once.

    ``scales[i]`` turns request i's wall time into time on the nominal host:
    ``PROBE_NOMINAL_S`` over the mean of the probes run next to it (1.0 in a
    pass without probes).  ``norm_wall_s`` is the pass's request time
    (fresh-worker spawns included, probes left out), scaled the same way."""

    def __init__(self):
        self.requests: list[tuple[dict, dict]] = []
        self.responses: list[dict] = []
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.setups: list[float] = []
        self.setup_scales: list[float] = []
        self.rss_kb: list[int] = []
        self.traces: list[dict] = []
        self.cycles = 0
        self.wall_s = 0.0
        self.norm_wall_s = 0.0

    def record(self, req, exp, resp, dt):
        self.requests.append((req, exp))
        self.responses.append(resp)
        self.latencies.append(dt)

    def done(self, stream, elapsed: float, seconds: float) -> bool:
        return elapsed >= seconds and len(self.latencies) >= MIN_REQUESTS and self.cycles >= stream.min_cycles

    def finish_worker(self, w: Worker):
        final = w.close()
        self.rss_kb.append(final["rss_kb"])
        if final["trace"] is not None:
            self.traces.append(final["trace"])


def scale_of(*probes) -> float:
    return PROBE_NOMINAL_S / statistics.mean(probes)


def fresh_request(p: Pass, header: bytes, req, exp, probe: bool):
    """One request in a worker of its own, with a probe before and after."""
    w = Worker(header)
    try:
        before = [w.probe()] if probe else []
        t_req = time.perf_counter()
        try:
            resp, dt = w.call(req)
            after = [w.probe()] if probe else []
            p.finish_worker(w)
        except (OSError, RuntimeError, ValueError) as exc:
            resp, dt, after = {"ok": False, "error": f"worker died: {exc}"}, time.perf_counter() - t_req, []
    finally:
        w.kill()
    scale = scale_of(*before, *after) if before else 1.0
    p.record(req, exp, resp, dt)
    p.scales.append(scale)
    p.setups.append(w.setup_s)
    p.setup_scales.append(scale)
    p.norm_wall_s += (w.setup_s + dt) * scale


def run_pass(stream, header: bytes, cycles, seconds=None, probe=False) -> Pass:
    """Send whole cycles, one request in flight.  With seconds, start a new
    cycle only while the run is younger than that, or too short.  With
    probe, gauge the host's speed around each request (fresh workers) or
    around every ``stream.probe_every`` requests (one session worker)."""
    p = Pass()
    if stream.fresh_worker:
        t0 = time.perf_counter()
        for cyc in cycles:
            if seconds is not None and p.done(stream, time.perf_counter() - t0, seconds):
                break
            for req, exp in cyc:
                fresh_request(p, header, req, exp, probe)
            p.cycles += 1
        p.wall_s = time.perf_counter() - t0
        return p

    main = Worker(header)
    try:
        t0 = time.perf_counter()
        first = last = main.probe() if probe else PROBE_NOMINAL_S
        seg_start, seg_t0 = 0, time.perf_counter()

        def end_segment():
            nonlocal last, seg_start, seg_t0
            seg_wall = time.perf_counter() - seg_t0
            now = main.probe() if probe else PROBE_NOMINAL_S
            scale = scale_of(last, now)
            p.scales += [scale] * (len(p.latencies) - seg_start)
            p.norm_wall_s += seg_wall * scale
            last, seg_start, seg_t0 = now, len(p.latencies), time.perf_counter()

        alive = True
        for cyc in cycles:
            if seconds is not None and p.done(stream, time.perf_counter() - t0, seconds):
                break
            for req, exp in cyc:
                t_req = time.perf_counter()
                try:
                    resp, dt = main.call(req)
                except (OSError, RuntimeError, ValueError) as exc:
                    # a dead session worker fails its request and ends the pass
                    resp, dt = {"ok": False, "error": f"worker died: {exc}"}, time.perf_counter() - t_req
                    alive = False
                p.record(req, exp, resp, dt)
                if not alive:
                    break
                if len(p.latencies) - seg_start == stream.probe_every:
                    end_segment()
            if not alive:
                # no probe after a dead worker: its requests keep the last scale
                p.scales += [scale_of(last)] * (len(p.latencies) - seg_start)
                break
            p.cycles += 1
        if alive:
            if seg_start < len(p.latencies):
                end_segment()
            p.setups.append(main.setup_s)
            p.setup_scales.append(scale_of(first))
            p.finish_worker(main)
        p.wall_s = time.perf_counter() - t0
    finally:
        main.kill()
    return p


def count_failures(workloads, p: Pass) -> tuple[int, str]:
    """Failed requests (raised, or output rejected by its oracle) and a digest
    of all outputs in order."""
    failed = 0
    h = hashlib.sha256()
    for (req, exp), resp in zip(p.requests, p.responses):
        h.update(json.dumps(resp, sort_keys=True).encode())
        if not resp["ok"]:
            problem = resp["error"]
        else:
            try:
                problem = workloads.check(req, exp, resp["out"])
            except Exception as exc:  # a malformed output is a failed request
                problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            failed += 1
            if failed <= 5:
                print(f"FAILED {req['op']}: {problem}", file=sys.stderr)
    return failed, h.hexdigest()


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Latency at the highest percentile with at least ten requests beyond
    it, and that percentile; None when there are too few requests."""
    n = len(latencies)
    if n < MIN_REQUESTS:
        return None
    k = n - 11
    return sorted(latencies)[k], 100.0 * (k + 1) / n


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(workloads, stream, header, seconds) -> dict:
    # set-up samples first, so the timed loop runs with no other process
    setups, scales = [], []
    if not stream.fresh_worker:
        for _ in range(SETUP_SAMPLES - 1):
            w = Worker(header)
            try:
                scales.append(scale_of(w.probe()))
                setups.append(w.setup_s)
                w.close()
            finally:
                w.kill()
    p = run_pass(stream, header, stream.cycles, seconds, probe=True)
    setups += p.setups
    scales += p.setup_scales
    failed, digest = count_failures(workloads, p)
    n = len(p.latencies)
    latencies = [dt * k for dt, k in zip(p.latencies, p.scales)]
    metrics = {
        "setup_s": metric(statistics.median(s * k for s, k in zip(setups, scales)), "s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "requests_per_s": metric(n / p.norm_wall_s, "1/s"),
        "peak_rss_mb": metric(max(p.rss_kb, default=0) / 1024, "MB"),
    }
    t = tail(latencies)
    if t is not None:
        metrics["latency_tail_s"] = metric(t[0], "s")
    print(f"workload={stream.name} requests={n} cycles={p.cycles} wall_s={p.wall_s:.3f}")
    print(f"latency_tail_percentile={t[1]:.1f} samples={n}" if t else f"latency_tail_s omitted: {n} requests")
    print(f"fail_ratio={failed / n:.6f} ({failed}/{n})")
    print(f"setup_samples={len(setups)} digest={digest}")
    print(
        f"unscaled: setup_s={statistics.median(setups):.4f} latency_p50_s={statistics.median(p.latencies):.4f}"
        f" requests_per_s={n / p.wall_s:.4f} (wall time incl. probes)"
        f" host_scale median={statistics.median(p.scales):.3f} min={min(p.scales):.3f} max={max(p.scales):.3f}"
    )
    return {"correct": failed == 0, "attempted": n, "failed": failed, "metrics": metrics}


def traced(workloads, stream, header_plain, header_traced, seconds) -> dict:
    import tracing

    k = max(1, int(seconds * stream.trace_cycles_per_s))
    batch = stream.cycles[:k]
    plain = run_pass(stream, header_plain, batch)
    trace = run_pass(stream, header_traced, batch)
    fail_plain, digest_plain = count_failures(workloads, plain)
    fail_trace, digest_trace = count_failures(workloads, trace)
    same = digest_plain == digest_trace
    if not same:
        print("traced and untraced outputs differ", file=sys.stderr)

    busy = {n: 0.0 for n in tracing.SPANS}
    self_t = dict(busy)
    counts = {n: 0 for n in tracing.COUNTERS}
    for rep in trace.traces:
        for n in tracing.SPANS:
            busy[n] += rep["busy"][n]
            self_t[n] += rep["self"][n]
        for n, v in rep["counts"].items():
            counts[n] = max(counts[n], v) if n == "abgroup.max_coeff_bits" else counts[n] + v
    metrics = {}
    for n in tracing.SPANS:
        metrics[f"{n}_s"] = metric(busy[n], "s")
        metrics[f"{n}_self_s"] = metric(self_t[n], "s")
    for n in tracing.COUNTERS:
        metrics[n] = metric(counts[n], "bits" if n.endswith("_bits") else "count")
    attempts = counts["squares_k0.squares_kept"] + counts["squares_k0.squares_skipped"]
    kept = counts["squares_k0.squares_kept"] / attempts if attempts else 0.0
    metrics["squares_k0.kept_ratio"] = metric(kept, "ratio")
    metrics["trace.untraced_wall_s"] = metric(plain.wall_s, "s")
    metrics["trace.traced_wall_s"] = metric(trace.wall_s, "s")
    metrics["trace.overhead_s"] = metric(trace.wall_s - plain.wall_s, "s")
    n = len(trace.latencies)
    print(f"workload={stream.name} traced batch: cycles={k} requests={n}")
    print(f"untraced_wall_s={plain.wall_s:.3f} traced_wall_s={trace.wall_s:.3f} digest_match={same}")
    print(f"digest={digest_trace}")
    failed = fail_plain + fail_trace
    return {
        "correct": failed == 0 and same,
        "attempted": 2 * n,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cutpaste" / "__init__.py").is_file():
        print(f"no cutpaste sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import cutpaste

    if Path(cutpaste.__file__).resolve().parent != (SRC / "cutpaste").resolve():
        print(f"imported cutpaste from {cutpaste.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    generate, max_cycles = workloads.GENERATORS[args.workload]
    stream = generate(args.seed, max_cycles)
    pool = stream.pool.surfaces

    def header(trace):
        return (json.dumps({"trace": trace, "pool": pool}, separators=(",", ":")) + "\n").encode()

    if args.trace:
        result = traced(workloads, stream, header(0), header(1), args.seconds)
    else:
        result = untraced(workloads, stream, header(0), args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
