"""The serving benchmark: client-seen latency, throughput and cost.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The server under test runs in its own
process (``launch.py``); this process is the load generator and drives it
through ``ServiceClient`` with two threads and two connections.

One run:

1. rebuild the workload seed's demo fleet in process and compute the
   reference answer of every distinct request (before any timing);
2. launch the server ``SETUP_LAUNCHES`` times; ``setup_s`` is the median
   time from process start to the first ready ``/healthz``, and the last
   launch serves the run;
3. warm up, then an **open-loop** phase at the fixed rate of
   ``workloads.RATES`` (latencies timed from each request's due time),
   then a **closed-loop** phase (throughput), each from two threads with
   one connection each;
4. on workloads without writes of their own, a short open-loop probe of
   the same retraining writes as ``enroll-churn`` gives the write
   latencies (after one untimed buffered upload to each written user);
5. check every answer; print the report, then one JSON line.  A wrong
   answer fails the run (exit 1), and so does any failed operation
   (exit 4): the error rate is 0 on every workload.

With ``--trace 1`` the same phases run twice on one server, untraced and
then with the layer wrappers of ``layers.py`` enabled; the run reports
per-layer self times and the wrappers' overhead on each end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from http.client import HTTPConnection
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("fleet-batch", "phone-stream", "enroll-churn", "routed-batch")
SETUP_LAUNCHES = 2
THREADS = 2
OPEN_SHARE = 0.8  # of --seconds; the closed loop gets the rest
PROBE_SECONDS = 4.0
LAG_LIMIT_MS = 10.0  # generator lateness that makes a phase invalid
MEAN_BLOCKS = 4  # consecutive blocks a latency mean is taken over
PHASE_ATTEMPTS = 3
HELD_OUT_SEED = 20261016

#: End-to-end metrics (``--trace 0``) and their units.  Latency is summed
#: up by its median and mean, not a tail percentile: about 40 ms of
#: delayed-ACK stall hits a share of requests that itself varies from run
#: to run, so with 60-240 samples a run's p90 or p99 flips between the
#: stalled and unstalled modes (over ten seeds they spread by 23-83% of
#: their median).  The mean moves smoothly with that share; it is the
#: median of the means of MEAN_BLOCKS consecutive blocks of the phase, so
#: one short host stall moves one block, not the figure.  The report
#: prints the whole percentile ladder with its sample count.
END_TO_END = {
    "setup_s": "s",
    "auth_latency_p50_ms": "ms",
    "auth_latency_mean_ms": "ms",
    "write_latency_p50_ms": "ms",
    "write_latency_mean_ms": "ms",
    "throughput_windows_per_s": "windows/s",
    "cpu_ms_per_kwindow": "ms",
    "peak_rss_mb": "MB",
}
#: End-to-end metrics the traced run reports its overhead on.
OVERHEAD_OF = (
    "auth_latency_p50_ms",
    "auth_latency_mean_ms",
    "write_latency_p50_ms",
    "write_latency_mean_ms",
    "throughput_windows_per_s",
    "cpu_ms_per_kwindow",
)
#: Per-layer self times, each reported as .p50/.p99 (ms), .count, .busy_s.
LAYER_TIMES = (
    "transport.client_rtt_ms",
    "transport.server_ms",
    "transport.wire_ms",
    "transport.dispatch_frame_ms",
    "wirebin.parse_ms",
    "wirebin.encode_ms",
    "envelope.process_ms",
    "envelope.authorize_frame_ms",
    "frontend.submit_columns_ms",
    "frontend.submit_many_ms",
    "frontend.queue_wait_ms",
    "frontend.queue_roundtrip_ms",
    "gateway.detect_ms",
    "gateway.handle_write_ms",
    "gateway.train_ms",
    "store.append_ms",
    "store.sample_negatives_ms",
    "registry.publish_ms",
    "scoring.score_stacked_ms",
    "scoring.score_requests_ms",
    "scoring.stack_build_ms",
    "cluster.route_frame_ms",
    "cluster.split_ms",
    "cluster.exchange_ms",
    "cluster.forward_json_ms",
)
#: Per-layer sampled values, each reported as .p50 and .count.
LAYER_VALUES = (
    "wirebin.request_bytes",
    "frontend.windows_per_pass",
    "cluster.subframes_per_frame",
)
#: Per-layer counts.
LAYER_COUNTS = (
    "envelope.rejections",
    "registry.publishes",
    "scoring.stack_cache_hits",
    "scoring.stack_cache_misses",
    "cluster.retries",
)


def per_layer_units() -> dict[str, str]:
    """Every ``--trace 1`` metric name with its unit."""
    units: dict[str, str] = {}
    for name in LAYER_TIMES:
        units.update(
            {f"{name}.p50": "ms", f"{name}.p99": "ms", f"{name}.count": "count",
             f"{name}.busy_s": "s"}
        )
    for name in LAYER_VALUES:
        unit = "bytes" if name.endswith("bytes") else "count"
        units.update({f"{name}.p50": unit, f"{name}.count": "count"})
    for name in LAYER_COUNTS:
        units[name] = "count"
    units["scoring.stack_cache_hit_ratio"] = "fraction"
    units["generator.lag_p99_ms"] = "ms"
    units["generator.achieved_rate_ratio"] = "fraction"
    for name in OVERHEAD_OF:
        units[f"overhead.{name}"] = END_TO_END[name]
    return units


# --------------------------------------------------------------------- #
# the server process
# --------------------------------------------------------------------- #


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def cpu_seconds(pids: list[int]) -> float:
    ticks = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime + stime
    return ticks / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """One launch of the server under test, timed to its first ready /healthz."""

    def __init__(self, workload: str, seed: int, trace: bool, index: int) -> None:
        self.work = os.path.join(WORK, f"{os.getpid()}-{index}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.log_path = os.path.join(self.work, "server.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        command = [
            sys.executable, os.path.join(HERE, "launch.py"), "--workload", workload,
            "--seed", str(seed), "--work", self.work, "--trace", str(int(trace)),
        ]
        started = perf_counter()
        with open(self.log_path, "w") as log:
            self.process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
                env=env, cwd=ROOT, start_new_session=True,
            )
        try:
            self.port, self.api_key = self._await_banner()
            self._await_ready()
        except BaseException:
            self.stop()
            raise
        self.setup_s = perf_counter() - started

    def _log(self) -> str:
        with open(self.log_path) as handle:
            return handle.read()

    def _check_alive(self) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(
                f"server exited with {self.process.returncode}:\n{self._log()[-3000:]}"
            )

    def _await_banner(self) -> tuple[int, str]:
        deadline = time.monotonic() + 150.0
        while time.monotonic() < deadline:
            self._check_alive()
            text = self._log()
            port = re.search(r"READY (\d+)|http://127\.0\.0\.1:(\d+)", text)
            key = re.search(r"API key: (\S+)", text)
            if port and key:
                return int(port.group(1) or port.group(2)), key.group(1)
            time.sleep(0.01)
        raise RuntimeError("server printed no address within 150 s")

    def _await_ready(self) -> None:
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            self._check_alive()
            connection = HTTPConnection("127.0.0.1", self.port, timeout=5.0)
            try:
                connection.request("GET", "/healthz")
                reply = connection.getresponse()
                if reply.status == 200 and json.loads(reply.read()).get("ready"):
                    return
            except (OSError, ValueError):
                pass
            finally:
                connection.close()
            time.sleep(0.005)
        raise RuntimeError("server never reported ready")

    def pids(self) -> list[int]:
        return [self.process.pid] + _children(self.process.pid)

    def signal_all(self, signum: int) -> list[int]:
        pids = self.pids()
        for pid in pids:
            os.kill(pid, signum)
        return pids

    def collect_layers(self, pids: list[int]) -> list[dict]:
        """Stop and gather every server process's layer samples."""
        paths = [os.path.join(self.work, f"layers-{pid}.json") for pid in pids]
        for path in paths:
            if os.path.exists(path):
                os.remove(path)
        for pid in pids:
            os.kill(pid, signal.SIGUSR2)
        deadline = time.monotonic() + 20.0
        while not all(os.path.exists(path) for path in paths):
            if time.monotonic() > deadline:
                raise RuntimeError("a server process wrote no layer samples")
            time.sleep(0.02)
        dumps = []
        for path in paths:
            with open(path) as handle:
                dumps.append(json.load(handle))
        return dumps

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.process.wait()
        shutil.rmtree(self.work, ignore_errors=True)


# --------------------------------------------------------------------- #
# load generation
# --------------------------------------------------------------------- #


class LoadGenerator:
    """Sends operations through ``ServiceClient`` and checks every answer."""

    def __init__(self, inputs, port: int, api_key: str) -> None:
        from repro.service.transport import ServiceClient
        from workloads import Checker

        self.inputs = inputs
        # One single-connection client per generator thread: each thread
        # keeps its own connection, so a connection's idle gap is set by the
        # schedule rather than by which pooled socket happened to be free.
        self.clients = [
            ServiceClient(port=port, api_key=api_key, codec="binary", timeout_s=60.0)
            for _ in range(THREADS)
        ]
        self.checker = Checker(inputs.written)
        self.lock = threading.Lock()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def execute(self, op: tuple[str, int], slot: int = 0) -> tuple[int, int, float]:
        """Run one operation on thread *slot*'s connection.

        Returns (requests served, windows served, time the answer was
        decoded); checking the answer comes after that time.
        """
        kind, index = op
        with self.lock:
            floor = self.checker.version_floor()
        inputs = self.inputs
        if kind == "read" and inputs.batch:
            requests = inputs.frames[index % len(inputs.frames)]
            references = inputs.frame_refs[index % len(inputs.frames)]
        elif kind == "read":
            requests = [inputs.phones[index % len(inputs.phones)]]
            references = [inputs.phone_refs[index % len(inputs.phones)]]
        else:
            pool = inputs.writes if kind == "write" else inputs.primers
            requests = [pool[index % len(pool)]]
            references = None
            with self.lock:
                self.checker.written.add(requests[0].user_id)
        try:
            client = self.clients[slot]
            if len(requests) == 1:
                responses = [client.submit(requests[0])]
            else:
                responses = client.submit_many(requests)
        except (OSError, ValueError, PermissionError) as error:
            responses = [None] * len(requests)
            with self.lock:
                self.errors.append(f"{kind}: {type(error).__name__}: {error}")
        done = perf_counter()
        served = windows = 0
        with self.lock:
            for position, (request, response) in enumerate(zip(requests, responses)):
                if references is not None:
                    ok = self.checker.authenticate(
                        request, response, references[position], floor
                    )
                else:
                    ok = self.checker.write(request, response)
                if ok:
                    served += 1
                    if references is not None:
                        windows += len(request.features)
                elif response is not None:
                    self.errors.append(f"{kind}: {response!r}"[:300])
            self.attempted += len(requests)
            self.failed += len(requests) - served
        return served, windows, done

    def close(self) -> None:
        for client in self.clients:
            client.close()


def open_loop(generator: LoadGenerator, ops: list, dues: list[float]) -> dict:
    """Send ``ops[i]`` at ``dues[i]`` seconds, from at most THREADS threads."""
    records: list = [None] * len(ops)
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    start = perf_counter() + 0.05

    def run(slot: int) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            ready = perf_counter()
            due = start + dues[index]
            if due > ready:
                time.sleep(due - ready)
            sent = perf_counter()
            served, windows, done = generator.execute(ops[index], slot)
            records[index] = (ops[index][0], due, ready, sent, done, served, windows)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    lags = [(r[3] - max(r[1], r[2])) * 1e3 for r in records]
    last_sent = max(r[3] for r in records)
    span = dues[-1] - dues[0]
    return {
        "records": records,
        "lag_p99_ms": percentile(lags, 99),
        "achieved_rate_ratio": span / max(last_sent - (start + dues[0]), 1e-9)
        if span > 0 else 1.0,
        "windows": sum(r[6] for r in records),
    }


def closed_loop(generator: LoadGenerator, kinds: tuple[str, ...], seconds: float) -> dict:
    """One thread per entry of *kinds*, each sending back to back."""
    totals = {"windows": 0}
    lock = threading.Lock()
    start = perf_counter()
    deadline = start + seconds
    finished: list[float] = []

    def run(kind: str, slot: int) -> None:
        index = slot
        while perf_counter() < deadline:
            _, windows, _ = generator.execute((kind, index), slot)
            index += THREADS
            with lock:
                totals["windows"] += windows
        with lock:
            finished.append(perf_counter())

    threads = [
        threading.Thread(target=run, args=(kind, slot))
        for slot, kind in enumerate(kinds)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(finished) - start
    return {"windows": totals["windows"], "throughput": totals["windows"] / elapsed}


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) if values else 0.0


def block_mean(values: list[float]) -> float:
    """Median of the means of MEAN_BLOCKS consecutive blocks of *values*."""
    import numpy as np

    blocks = np.array_split(np.asarray(values, dtype=float), MEAN_BLOCKS)
    return statistics.median(float(block.mean()) for block in blocks)


def schedule(workload: str, seconds: float, probe: bool) -> tuple[list, list]:
    """Due times of one open-loop phase.

    Batch reads and the write probe are periodic; phone reads and
    ``enroll-churn`` writes are Poisson arrivals.  The arrival times are
    drawn from a fixed stream, the same for every workload seed: the share
    of requests that meet a delayed-ACK stall follows the arrival pattern
    (one seed repeated gives the same share, two seeds differ by a third),
    so a seed picks what is sent, not when.
    """
    from workloads import ARRIVALS_SEED, PROBE_RATE, RATES, rng_for

    rng = rng_for(ARRIVALS_SEED, 4)
    entries: list[tuple[float, str]] = []
    rates = {"write": PROBE_RATE} if probe else RATES[workload]
    for kind, rate in rates.items():
        if probe or (kind == "read" and workload != "phone-stream"):
            due = [k / rate for k in range(int(seconds * rate))]
        else:
            gaps = rng.exponential(1.0 / rate, size=int(seconds * rate * 3) + 8)
            due = [t for t in gaps.cumsum() if t < seconds]
        entries += [(t, kind) for t in due]
    entries.sort()
    counters = {"read": 0, "write": 0}
    ops = []
    for _, kind in entries:
        ops.append((kind, counters[kind]))
        counters[kind] += 1
    return ops, [t for t, _ in entries]


def run_phases(generator: LoadGenerator, server: Server, workload: str, seconds: float) -> dict:
    """Open loop, closed loop and (if the workload has no writes) the probe."""
    open_seconds = OPEN_SHARE * seconds
    closed_seconds = seconds - open_seconds
    if workload == "enroll-churn":
        # Its writes run beside its reads, in the time the probe takes on
        # the other workloads: more write samples for the same run time.
        open_seconds += PROBE_SECONDS
    ops, dues = schedule(workload, open_seconds, probe=False)
    pids = server.pids()
    for _ in range(PHASE_ATTEMPTS):
        cpu_before = cpu_seconds(pids)
        phase = open_loop(generator, ops, dues)
        if phase["lag_p99_ms"] <= LAG_LIMIT_MS:
            break
        print(f"open-loop phase invalid (generator lag p99 "
              f"{phase['lag_p99_ms']:.2f} ms > {LAG_LIMIT_MS} ms); repeating",
              flush=True)
    else:
        raise InvalidRun(
            f"the load generator fell behind its schedule in {PHASE_ATTEMPTS} "
            "attempts; the run is invalid, not slow"
        )
    kinds = ("read", "write") if workload == "enroll-churn" else ("read",) * THREADS
    closed = closed_loop(generator, kinds, closed_seconds)
    cpu_used = cpu_seconds(pids) - cpu_before
    reads = [r for r in phase["records"] if r[0] == "read"]
    writes = [r for r in phase["records"] if r[0] == "write"]
    if workload != "enroll-churn":
        for index in range(len(generator.inputs.primers)):
            generator.execute(("prime", index))
        probe_ops, probe_dues = schedule(workload, PROBE_SECONDS, probe=True)
        writes = open_loop(generator, probe_ops, probe_dues)["records"]
    # Latency of served operations only: a fast refusal is not a fast answer.
    auth = [(r[4] - r[1]) * 1e3 for r in reads if r[5]]
    write = [(r[4] - r[1]) * 1e3 for r in writes if r[5]]
    windows = phase["windows"] + closed["windows"]
    return {
        "metrics": {
            "auth_latency_p50_ms": percentile(auth, 50),
            "auth_latency_mean_ms": block_mean(auth),
            "write_latency_p50_ms": percentile(write, 50),
            "write_latency_mean_ms": block_mean(write),
            "throughput_windows_per_s": closed["throughput"],
            "cpu_ms_per_kwindow": cpu_used * 1e3 / (windows / 1e3),
        },
        "samples": {"auth": len(auth), "write": len(write)},
        "latencies": {"auth": auth, "write": write},
        "lag_p99_ms": phase["lag_p99_ms"],
        "achieved_rate_ratio": phase["achieved_rate_ratio"],
        "offered": dict(ops=len(ops), seconds=open_seconds),
    }


class InvalidRun(RuntimeError):
    """The generator, not the program, missed its schedule."""


# --------------------------------------------------------------------- #
# per-layer statistics
# --------------------------------------------------------------------- #


def layer_metrics(dumps: list[dict]) -> dict[str, float]:
    times: dict[str, list[float]] = {}
    values: dict[str, list[float]] = {}
    counts: dict[str, float] = {}
    for dump in dumps:
        for name, samples in dump["times"].items():
            times.setdefault(name, []).extend(samples)
        for name, samples in dump["values"].items():
            values.setdefault(name, []).extend(samples)
        for name, amount in dump["counts"].items():
            counts[name] = counts.get(name, 0.0) + amount
    out: dict[str, float] = {}

    def timing(name: str, p50: float, p99: float, count: int, busy: float) -> None:
        out.update({f"{name}.p50": p50, f"{name}.p99": p99,
                    f"{name}.count": count, f"{name}.busy_s": busy})

    for name in LAYER_TIMES:
        samples = times.get(name, [])
        timing(name, percentile(samples, 50) * 1e3, percentile(samples, 99) * 1e3,
               len(samples), float(sum(samples)))
    rtt = times.get("transport.client_rtt_ms", [])
    server = times.get("transport.server_ms", [])
    timing(
        "transport.wire_ms",
        (percentile(rtt, 50) - percentile(server, 50)) * 1e3,
        (percentile(rtt, 99) - percentile(server, 99)) * 1e3,
        len(rtt),
        float(sum(rtt) - sum(server)),
    )
    for name in LAYER_VALUES:
        samples = values.get(name, [])
        out[f"{name}.p50"] = percentile(samples, 50)
        out[f"{name}.count"] = len(samples)
    for name in LAYER_COUNTS:
        out[name] = counts.get(name, 0.0)
    lookups = out["scoring.stack_cache_hits"] + out["scoring.stack_cache_misses"]
    out["scoring.stack_cache_hit_ratio"] = (
        out["scoring.stack_cache_hits"] / lookups if lookups else 0.0
    )
    return out


# --------------------------------------------------------------------- #
# the run
# --------------------------------------------------------------------- #


def stamp(seed: int) -> dict:
    digest = hashlib.sha256()
    for folder, _, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(handle.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": commit,
        "source_sha256": digest.hexdigest()[:16], "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def measure(args: argparse.Namespace) -> tuple[dict, LoadGenerator, dict]:
    from launch import build_fleet
    from workloads import make_inputs

    simulator = build_fleet(args.seed, None)
    inputs = make_inputs(args.workload, args.seed, simulator)
    del simulator

    launches = 1 if args.trace else SETUP_LAUNCHES
    setups = []
    for index in range(launches - 1):
        extra = Server(args.workload, args.seed, bool(args.trace), index)
        setups.append(extra.setup_s)
        extra.stop()
    server = Server(args.workload, args.seed, bool(args.trace), launches)
    setups.append(server.setup_s)
    generator = LoadGenerator(inputs, server.port, server.api_key)
    report: dict = {"setup_runs_s": setups}
    try:
        # warm-up: open both connections, fill the stack cache
        for index in range(20 if args.workload == "phone-stream" else 4):
            generator.execute(("read", index), index % THREADS)
        if args.trace:
            import layers

            untraced = run_phases(generator, server, args.workload, args.seconds / 2)
            recorder = layers.Recorder()
            layers.install_client(recorder)
            pids = server.signal_all(signal.SIGUSR1)
            recorder.enabled = True
            traced = run_phases(generator, server, args.workload, args.seconds / 2)
            recorder.enabled = False
            dumps = server.collect_layers(pids) + [recorder.samples()]
            metrics = layer_metrics(dumps)
            metrics["generator.lag_p99_ms"] = traced["lag_p99_ms"]
            metrics["generator.achieved_rate_ratio"] = traced["achieved_rate_ratio"]
            for name in OVERHEAD_OF:
                metrics[f"overhead.{name}"] = (
                    traced["metrics"][name] - untraced["metrics"][name]
                )
            report.update(untraced=untraced, traced=traced)
        else:
            phases = run_phases(generator, server, args.workload, args.seconds)
            metrics = dict(phases["metrics"])
            metrics["setup_s"] = statistics.median(setups)
            metrics["peak_rss_mb"] = peak_rss_mb(server.pids())
            report.update(phases=phases)
    finally:
        generator.close()
        server.stop()
    return metrics, generator, report


def print_report(args, metrics: dict, generator: LoadGenerator, report: dict, info: dict) -> None:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("stamp: " + json.dumps(info, sort_keys=True))
    print(f"setup launches (s): {', '.join(f'{s:.3f}' for s in report['setup_runs_s'])}")
    phases = report.get("phases") or report.get("traced")
    print(f"generator: lag p99 {phases['lag_p99_ms']:.3f} ms, achieved/offered "
          f"rate {phases['achieved_rate_ratio']:.3f} ({phases['offered']['ops']} ops "
          f"offered in {phases['offered']['seconds']:.1f} s)")
    samples = phases["samples"]
    for kind, values in phases["latencies"].items():
        ladder = ", ".join(
            f"p{q} {percentile(values, q):.2f}" for q in (50, 75, 90, 95, 99, 100)
        )
        print(f"{kind} latency (ms) over {len(values)} samples: {ladder}")
    print(f"operations: attempted {generator.attempted}, failed {generator.failed}, "
          f"error_rate {generator.failed / max(generator.attempted, 1):.6f}")
    if args.trace:
        untraced, traced = report["untraced"]["metrics"], report["traced"]["metrics"]
        print(f"{'end-to-end metric':<28}{'untraced':>12}{'traced':>12}{'overhead':>12}")
        for name in OVERHEAD_OF:
            print(f"{name:<28}{untraced[name]:>12.3f}{traced[name]:>12.3f}"
                  f"{metrics[f'overhead.{name}']:>+12.3f}")
        print(f"{'layer (self time)':<30}{'p50 ms':>10}{'p99 ms':>10}{'count':>8}"
              f"{'busy s':>10}")
        for name in LAYER_TIMES:
            if metrics[f"{name}.count"]:
                print(f"{name:<30}{metrics[f'{name}.p50']:>10.3f}"
                      f"{metrics[f'{name}.p99']:>10.3f}{metrics[f'{name}.count']:>8d}"
                      f"{metrics[f'{name}.busy_s']:>10.3f}")
        for name in LAYER_VALUES:
            print(f"{name:<30} p50 {metrics[f'{name}.p50']:.1f} over "
                  f"{metrics[f'{name}.count']} samples")
        hits, misses = metrics["scoring.stack_cache_hits"], metrics["scoring.stack_cache_misses"]
        print(f"scoring.stack_cache_hit_ratio {metrics['scoring.stack_cache_hit_ratio']:.3f}"
              f" ({hits:.0f} hits / {hits + misses:.0f} lookups)")
        for name in ("envelope.rejections", "registry.publishes", "cluster.retries"):
            print(f"{name} {metrics[name]:.0f}")
    else:
        for name, unit in END_TO_END.items():
            note = ""
            if name.startswith("auth_latency"):
                note = f"  (of {samples['auth']} samples)"
            elif name.startswith("write_latency"):
                note = f"  (of {samples['write']} samples)"
            print(f"{name:<28}{metrics[name]:>14.4f} {unit}{note}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "service", "transport.py")):
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.setswitchinterval(0.0005)
    os.makedirs(WORK, exist_ok=True)
    info = stamp(args.seed)
    try:
        metrics, generator, report = measure(args)
    except InvalidRun as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    correct = not generator.checker.mismatches
    for mismatch in generator.checker.mismatches[:20]:
        print(f"MISMATCH {mismatch}")
    for error in generator.errors[:20]:
        print(f"error: {error}")
    print_report(args, metrics, generator, report, info)
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": generator.attempted,
        "failed": generator.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not correct:
        return 1
    return 4 if generator.failed else 0


if __name__ == "__main__":
    sys.exit(main())
