"""Start the server under test, exactly as its command line builds it.

    python3 perfbench/launch.py --workload NAME --seed N --work DIR [--trace 1]

Single-process workloads run ``python -m repro.service.transport
--demo-fleet 500 --seed N --port 0`` in this process (a micro-batch queue
and one provisioned operator caller, all at their defaults).
``enroll-churn`` serves the same demo fleet, persisted to an on-disk
registry under DIR so that retrains publish to disk.  ``routed-batch``
trains that fleet into a registry under DIR, then re-executes itself with
``--serve`` (so the router's peak memory does not include the training)
and runs ``python -m repro.service.cluster router --workers 2`` over it.

With ``--trace 1`` the layer wrappers of :mod:`layers` are installed first
(disabled until SIGUSR1), in this process and in every shard worker.
"""

from __future__ import annotations

import argparse
import os
import sys

import layers

N_USERS = 500
N_WORKERS = 2
HERE = os.path.dirname(os.path.abspath(__file__))


def build_fleet(seed: int, registry_root: str | None):
    """The transport CLI's demo fleet, optionally persisted as it trains."""
    from repro.service.fleet import FleetConfig, FleetSimulator

    simulator = FleetSimulator(
        FleetConfig(n_users=N_USERS, seed=seed), registry_root=registry_root
    )
    simulator.build_users()
    simulator.enroll_fleet()
    return simulator


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--serve", action="store_true")
    args = parser.parse_args()

    if args.trace:
        recorder = layers.Recorder(front=True)
        layers.install_server(recorder)
        layers.serve_signals(recorder, args.work)

    registry_root = os.path.join(args.work, "registry")
    if args.workload == "routed-batch":
        from repro.service import cluster

        if not args.serve:
            build_fleet(args.seed, registry_root)
            sys.stdout.flush()
            os.execv(sys.executable, [sys.executable] + sys.argv + ["--serve"])
        if args.trace:
            shim = os.path.join(HERE, "worker.py")
            command = cluster.WorkerPool._command

            def traced_command(self, *a, **k):
                argv = command(self, *a, **k)
                # [python, -m, repro.service.cluster, worker, ...] -> shim
                return [argv[0], shim, args.work] + argv[4:]

            cluster.WorkerPool._command = traced_command
        return cluster.main(
            [
                "router",
                "--workers",
                str(N_WORKERS),
                "--port",
                "0",
                "--registry-root",
                registry_root,
            ]
        )

    from repro.service import transport

    if args.workload == "enroll-churn":
        transport._build_demo_frontend = lambda n, seed: build_fleet(
            seed, registry_root
        ).frontend
    return transport.main(
        ["--port", "0", "--demo-fleet", str(N_USERS), "--seed", str(args.seed)]
    )


if __name__ == "__main__":
    sys.exit(main())
