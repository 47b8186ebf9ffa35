"""Attribution self-test of the layer wrappers, and a metric-name check.

    python3 perfbench/selftest.py

Serves a small demo fleet in process, sends binary authenticate frames
and single enveloped JSON authenticates through ``ServiceClient`` and
reads the per-layer self times.  It then slows one layer's public
callable by a fixed sleep (underneath the wrapper, as a slower
implementation would be) and checks that this layer's self time rises by
about the sleep while every other self time stays put.  On the JSON path
the fused pass runs on the micro-batch queue's thread while the handler
thread waits, so this also checks that the wait stays out of
``envelope.process_ms``.  Exits non-zero on any failure.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

SLEEP_S = 0.02
FRAMES = 15
USERS = 40
#: Inclusive timings: they contain every layer below them, so they rise too.
#: ``frontend.queue_roundtrip_ms`` is the handler thread's wait on a pass
#: that runs on another thread, so it contains that pass.
INCLUSIVE = (
    "transport.client_rtt_ms",
    "transport.server_ms",
    "frontend.queue_roundtrip_ms",
)
#: (request path, slowed layer) pairs.
CASES = (
    ("binary", "scoring.score_stacked_ms"),
    ("binary", "envelope.authorize_frame_ms"),
    ("json", "scoring.score_stacked_ms"),
)


def check_names() -> list[str]:
    """BENCHMARK.json names exactly the metrics run.py prints."""
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != run.END_TO_END:
        problems.append(f"end_to_end differs: {declared} vs {run.END_TO_END}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != run.per_layer_units():
        problems.append("per_layer differs from run.per_layer_units()")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        problems.append("workloads differ from run.WORKLOADS")
    return problems


def main() -> int:
    import numpy as np

    import layers
    import run
    from repro.core import scoring
    from repro.sensors.types import CoarseContext
    from repro.service.envelope import EnvelopeProcessor
    from repro.service.fleet import FleetConfig, FleetSimulator
    from repro.service.frontend import MicroBatchQueue
    from repro.service.protocol import AuthenticateRequest
    from repro.service.transport import ServiceClient, ServiceHTTPServer

    problems = check_names()

    # Slow-downs sit beneath the wrappers, switched on one at a time.
    slow: dict[str, bool] = {}

    def slowed(key: str, fn):
        def inner(*args, **kwargs):
            if slow.get(key):
                time.sleep(SLEEP_S)
            return fn(*args, **kwargs)

        return inner

    layers.patch_function(
        scoring, "score_stacked", lambda fn: slowed("scoring.score_stacked_ms", fn)
    )
    layers.patch_method(
        EnvelopeProcessor,
        "authorize_frame",
        lambda fn: slowed("envelope.authorize_frame_ms", fn),
    )
    recorder = layers.Recorder()
    layers.install_server(recorder)
    layers.install_client(recorder)

    simulator = FleetSimulator(FleetConfig(n_users=USERS, seed=3))
    simulator.build_users()
    simulator.enroll_fleet()
    rng = np.random.default_rng(5)
    frame = []
    for user in simulator.users:
        matrix = user.sample_windows(4, 0.5, rng, simulator.feature_names)
        frame.append(
            AuthenticateRequest(
                user_id=user.user_id,
                features=matrix.values,
                contexts=tuple(CoarseContext(c) for c in matrix.contexts),
            )
        )
    frontend = simulator.frontend
    server = ServiceHTTPServer(frontend, queue=MicroBatchQueue(frontend))
    api_key = server.callers.register("selftest", ("data:write", "admin"))
    server.serve_background()
    clients = {
        codec: ServiceClient(port=server.port, api_key=api_key, codec=codec)
        for codec in ("binary", "json")
    }

    def self_times(codec: str) -> dict[str, float]:
        recorder.reset()
        recorder.enabled = True
        for _ in range(FRAMES):
            if codec == "binary":
                clients[codec].submit_many(frame)
            else:
                clients[codec].submit(frame[0])
        recorder.enabled = False
        metrics = run.layer_metrics([recorder.samples()])
        return {
            name: metrics[f"{name}.p50"] / 1e3
            for name in run.LAYER_TIMES
            if metrics[f"{name}.count"]
        }

    try:
        baselines = {}
        for codec in clients:
            self_times(codec)  # warm-up
            baselines[codec] = self_times(codec)
        if "envelope.process_ms" not in baselines["json"]:
            problems.append("envelope.process_ms was never called on JSON")
        for codec, target in CASES:
            baseline = baselines[codec]
            if target not in baseline:
                problems.append(f"{target} was never called on {codec}")
                continue
            slow[target] = True
            try:
                slowed_times = self_times(codec)
            finally:
                slow[target] = False
            for name, base in baseline.items():
                rise = slowed_times[name] - base
                expected = SLEEP_S if name == target or name in INCLUSIVE else 0.0
                ok = abs(rise - expected) < 0.35 * SLEEP_S
                print(f"{'ok ' if ok else 'BAD'} {codec:<6} sleep in {target:<28} "
                      f"{name:<30} rose {rise * 1e3:+8.3f} ms "
                      f"(expected {expected * 1e3:+.1f})")
                if not ok:
                    problems.append(
                        f"{codec} {target}: {name} rose {rise * 1e3:.3f} ms"
                    )
    finally:
        for client in clients.values():
            client.close()
        server.shutdown()
        server.server_close()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
