"""Fleet-scale serving over HTTP: 500 users through the v2 wire protocol.

Where the other examples drive a single user through the sensor-accurate
paper pipeline, this one exercises the ``repro.service`` subsystem end to
end **over real sockets and the versioned API**: an HTTP server
(``repro.service.transport``) exposes the micro-batching
``ServiceFrontend`` at ``POST /v2/requests`` (data plane) and
``POST /v2/admin`` (control plane), and a 500-user fleet runs its whole
lifecycle — enrollment into a sharded ring-buffer feature store,
per-context training published to the versioned model registry, continuous
authentication, masquerade attacks, behavioural drift and retraining —
with every protocol request wrapped in an authenticated caller envelope,
JSON-encoded, sent through a ``ServiceClient``, and batch-coalesced into
fused scoring passes on the server side, where the registry-published
detector labels every window's context.

Run with::

    python examples/fleet_scale_service.py
"""

import numpy as np

from repro.service.envelope import SCOPE_DATA_WRITE
from repro.service.fleet import FleetConfig, FleetSimulator
from repro.service.protocol import AuthenticateRequest, EvictRequest, RollbackRequest
from repro.service.transport import ServiceClient, ServiceHTTPServer


def main() -> None:
    # 1. Configure the 500-user fleet and expose its frontend over HTTP on
    #    a free local port.  The simulator provisions a "fleet-operator"
    #    caller (scopes: data:write + admin); handing the same caller
    #    registry to the server and the operator's key to a ServiceClient
    #    moves every enroll / authenticate / drift request onto the
    #    enveloped /v2 endpoints over a real socket.
    config = FleetConfig(n_users=500, seed=7)
    simulator = FleetSimulator(config)
    with ServiceHTTPServer(simulator.frontend, callers=simulator.callers) as server:
        client = ServiceClient(port=server.port, api_key=simulator.api_key)
        simulator.channel = client
        print(f"serving the fleet protocol on http://127.0.0.1:{server.port}")
        print(f"running the {config.n_users}-user lifecycle "
              "(enroll -> auth -> attack -> drift -> retrain) over /v2...")
        report = simulator.run()
        print()
        print(report.to_text())

        # 2. The registry keeps every trained version; roll one user back
        #    by submitting a typed RollbackRequest — a control-plane
        #    operation the client automatically routes to /v2/admin.
        registry = simulator.gateway.registry
        drifted_user = simulator.users[0]  # drifted, so it has two versions
        versions = registry.versions(drifted_user.user_id)
        serving = registry.latest_version(drifted_user.user_id)
        rollback = client.submit(RollbackRequest(user_id=drifted_user.user_id))
        print()
        print(f"{drifted_user.user_id}: versions={versions}, was serving "
              f"v{serving}, rolled back to v{rollback.serving_version}")

        # 3. Caller authentication is enforced per scope: a device-gateway
        #    credential with only data:write cannot touch the control
        #    plane — the envelope is rejected 403 before it can reach the
        #    service backend.
        device_key = simulator.callers.register("device-gateway", (SCOPE_DATA_WRITE,))
        device_client = ServiceClient(port=server.port, api_key=device_key)
        try:
            device_client.submit(RollbackRequest(user_id=drifted_user.user_id))
        except PermissionError as denied:
            print(f"device-gateway rollback denied: {denied}")
        finally:
            device_client.close()

        # 4. Authenticate once more against the rolled-back (pre-drift)
        #    model: the drifted user's fresh windows should score noticeably
        #    worse.  The service detects the windows' contexts itself
        #    (contexts=None) inside the same coalesced pass.
        matrix = drifted_user.sample_windows(
            8, config.window_noise, np.random.default_rng(0), simulator.feature_names
        )
        response = client.submit(
            AuthenticateRequest(user_id=drifted_user.user_id, features=matrix.values)
        )
        print(f"post-rollback accept rate on drifted behaviour: "
              f"{response.accept_rate:.1%} (model v{response.model_version})")

        # 5. Long-lived fleets evict old registry versions (the serving
        #    bundle is always kept) — another /v2/admin operation.
        evicted = client.submit(EvictRequest(policy="max_versions", max_versions=1))
        print(f"registry eviction dropped {evicted.versions_evicted} old "
              f"version(s) across {len(evicted.evicted)} user(s)")

        # 6. Storage stays bounded no matter how long the fleet runs, and
        #    the transport, frontend, backend and per-caller metrics all
        #    land in the one snapshot the /metrics endpoint serves.
        stats = simulator.gateway.server.store.stats()
        print(f"feature store: {stats.n_windows} windows across {stats.n_buffers} "
              f"ring buffers on {len(stats.windows_per_shard)} shards "
              f"({stats.total_evicted} old windows evicted)")
        snapshot = client.metrics()
        counters = snapshot["counters"]
        auth_latency = snapshot["latencies"]["frontend.authenticate"]
        operator = snapshot["callers"]["fleet-operator"]
        print(f"transport: {counters['transport.requests']} HTTP exchanges; "
              f"frontend: {counters['frontend.requests']} requests, "
              f"{counters['frontend.coalesced_windows']} windows coalesced into "
              f"{counters['frontend.coalesced_batches']} batches "
              f"({counters['frontend.stack_cache.hits']} passes served by a warm serving table), "
              f"{counters['context.detections']} contexts detected server-side, "
              f"p95 batch latency {auth_latency['p95_s'] * 1e3:.1f} ms")
        print(f"caller fleet-operator: {operator['requests']} authorized "
              f"envelopes; device-gateway: "
              f"{snapshot['callers']['device-gateway']['denied']} denied")
        client.close()


if __name__ == "__main__":
    main()
