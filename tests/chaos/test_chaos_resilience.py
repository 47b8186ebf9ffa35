"""Chaos: the self-healing layer — retries, drain/reshard, exactly-once quota.

The resilience contract pinned here:

* a worker SIGKILLed mid-dispatch heals **invisibly** when the restart
  lands inside the router's retry deadline — the client sees a normal
  200, never a 503 (``router.server_errors`` stays 0 and the retry
  counters prove the path was exercised);
* draining a shard under load drops nothing: in-flight requests
  complete, rerouted users land on the remaining shards, and undraining
  restores the original mapping bit-for-bit;
* a frame split across K shards charges the fleet quota exactly its
  request count — once, at the router — refunds it on total failure, and
  a duplicate dispatch of a prepaid sub-frame never charges twice.
"""

import json
import os
import signal
import time
import urllib.error
import urllib.request

import pytest

from repro.service.chaos import (
    OUTCOME_OK,
    OUTCOME_THROTTLED,
    ChaosLoad,
    DrainCycler,
    WorkerCrashStorm,
    classify_call,
)
from repro.service.cluster import (
    RetryPolicy,
    ShardRouter,
    ShardUnavailable,
    WorkerPool,
)
from repro.service.envelope import Envelope, dumps_envelope, loads_sealed
from repro.service.protocol import (
    AuthenticationResponse,
    DrainShardRequest,
    DrainShardResponse,
)
from repro.service.transport import V2_ADMIN_PATH, V2_REQUESTS_PATH, ServiceClient

pytestmark = pytest.mark.chaos

#: A retry budget sized to cover a worker respawn (interpreter start +
#: registry load take a second or two): frequent short backoffs under a
#: generous deadline, so a crash that heals answers 200, not 503.
HEALING_RETRIES = RetryPolicy(
    max_attempts=120,
    initial_backoff_s=0.05,
    max_backoff_s=0.25,
    deadline_s=60.0,
)


def _registry_root(fleet):
    return str(fleet.frontend.gateway.registry.root)


def _quota_tokens(path):
    with open(path, encoding="utf-8") as handle:
        return json.loads(handle.read())["tokens"]


def _split_across_shards(ring, probes):
    """Two probes per shard of a 2-shard ring, in submit order."""
    by_shard = {0: [], 1: []}
    for probe in probes:
        by_shard[ring.shard_for(probe.user_id)].append(probe)
    batch = by_shard[0][:2] + by_shard[1][:2]
    assert len(batch) == 4, "need two users per shard"
    return batch


def _post_admin(port, body):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{V2_ADMIN_PATH}",
        data=body,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _drain(router, api_key, shard, undrain=False):
    envelope = Envelope(
        request=DrainShardRequest(shard=shard, undrain=undrain), api_key=api_key
    )
    status, body = _post_admin(router.port, dumps_envelope(envelope).encode())
    return status, loads_sealed(body.decode("utf-8"))


def test_crash_storm_heals_invisibly_inside_the_retry_deadline(
    chaos_fleet, probes
):
    """SIGKILL mid-load + restart within budget ⇒ zero client-visible 503s."""
    registry_root = _registry_root(chaos_fleet)
    with WorkerPool(2, registry_root=registry_root, no_queue=True) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            storm = WorkerCrashStorm(pool, seed=11)

            def make_call(index):
                # Each thread cycles through EVERY probe so both shards
                # see continuous traffic — whichever worker the storm
                # kills, requests meet the dead window and must retry.
                client = ServiceClient(
                    port=router.port, api_key=pool.api_key, timeout_s=90.0
                )
                position = [index]

                def call():
                    position[0] += 1
                    return client.submit(probes[position[0] % len(probes)])

                return call

            load = ChaosLoad(make_call, n_threads=3, duration_s=3.0)
            outcomes = load.run(lambda: storm.storm(2, interval_s=0.8))

            assert storm.kills, "the storm never found a live worker"
            # The point of the retry layer: every outcome is a served
            # 200 — the 503s the pre-retry chaos test tolerated are gone.
            assert set(outcomes) == {OUTCOME_OK}, dict(outcomes)
            assert router.telemetry.counter_value("router.retries") > 0
            assert router.telemetry.counter_value("router.retry_successes") > 0
            assert router.telemetry.counter_value("router.server_errors") == 0


def test_sigkill_mid_dispatch_retries_to_the_respawned_worker(
    chaos_fleet, probes
):
    """Deterministic single-shard kill: the next request rides the backoff
    loop, meets the respawned worker, and answers 200."""
    registry_root = _registry_root(chaos_fleet)
    with WorkerPool(1, registry_root=registry_root, no_queue=True) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            client = ServiceClient(
                port=router.port, api_key=pool.api_key, timeout_s=90.0
            )
            assert isinstance(client.submit(probes[0]), AuthenticationResponse)

            os.kill(pool.pids()[0], signal.SIGKILL)
            # No waiting for health here: the router discovers the death
            # mid-exchange and retries against the respawn on its own.
            assert classify_call(lambda: client.submit(probes[1])) == OUTCOME_OK
            assert router.telemetry.counter_value("router.retries") > 0
            assert router.telemetry.counter_value("router.retry_successes") > 0
            assert router.telemetry.counter_value("router.server_errors") == 0
            health = pool.health()["0"]
            assert health["restarts"] >= 1
            assert health["last_crash_ts"] is not None


def test_drain_under_load_drops_nothing_and_restores_bit_for_bit(
    chaos_fleet, probes
):
    registry_root = _registry_root(chaos_fleet)
    user_ids = [probe.user_id for probe in probes]
    with WorkerPool(2, registry_root=registry_root, no_queue=True) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            before = [router.ring.shard_for(user) for user in user_ids]
            cycler = DrainCycler(router, seed=7)

            def make_call(index):
                client = ServiceClient(
                    port=router.port, api_key=pool.api_key, timeout_s=90.0
                )
                position = [index]

                def call():
                    position[0] += 1
                    return client.submit(probes[position[0] % len(probes)])

                return call

            load = ChaosLoad(make_call, n_threads=3, duration_s=2.0)
            outcomes = load.run(lambda: cycler.storm(3, dwell_s=0.3))

            # A drain is a routing decision, not a fault: nothing drops.
            assert cycler.cycles, "the cycler never drained a shard"
            assert set(outcomes) == {OUTCOME_OK}, dict(outcomes)
            assert router.telemetry.counter_value("router.server_errors") == 0
            assert router.telemetry.counter_value("router.drains") >= 1
            assert router.telemetry.counter_value("router.undrains") >= 1

            # The storm ended with every shard active: the mapping is
            # bit-for-bit the pre-storm one.
            assert router.draining() == frozenset()
            after = [router.ring.shard_for(user) for user in user_ids]
            assert after == before


def test_drain_admin_op_reroutes_users_and_denies_bad_credentials(
    chaos_fleet, probes
):
    registry_root = _registry_root(chaos_fleet)
    with WorkerPool(2, registry_root=registry_root, no_queue=True) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            client = ServiceClient(port=router.port, api_key=pool.api_key)

            # Drain shard 1 over the wire with the operator credential.
            status, sealed = _drain(router, pool.api_key, 1)
            assert status == 200
            assert isinstance(sealed.response, DrainShardResponse)
            assert sealed.response.draining is True
            assert sealed.response.active_shards == (0,)

            # Every user — including shard 1's — now serves from shard 0,
            # and the drained worker receives no new sub-frames.
            exclude = router.draining()
            assert exclude == frozenset({1})
            for probe in probes:
                assert router.ring.shard_for(probe.user_id, exclude) == 0
                assert isinstance(client.submit(probe), AuthenticationResponse)

            # Draining the last active shard is refused, typed.
            status, sealed = _drain(router, pool.api_key, 0)
            assert status == 400
            assert "last active shard" in sealed.response.message

            # A non-operator credential is denied, typed.
            status, sealed = _drain(router, "not-the-operator-key", 0)
            assert status == 401
            assert sealed.denied
            assert router.telemetry.counter_value("router.drain_denied") == 1

            # Undrain restores the original mapping bit-for-bit.
            status, sealed = _drain(router, pool.api_key, 1, undrain=True)
            assert status == 200
            assert sealed.response.draining is False
            assert sealed.response.active_shards == (0, 1)
            assert router.draining() == frozenset()


def test_split_frame_charges_fleet_quota_exactly_once(
    chaos_fleet, probes, tmp_path
):
    """A frame split across both shards costs n_requests — not per-shard."""
    registry_root = _registry_root(chaos_fleet)
    quota_path = tmp_path / "resilience-quota.json"
    with WorkerPool(
        2,
        registry_root=registry_root,
        caller_rate=0.0001,  # negligible refill within the test
        caller_burst=8.0,
        quota_path=quota_path,
        no_queue=True,
    ) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            batch = _split_across_shards(router.ring, probes)
            client = ServiceClient(
                port=router.port, api_key=pool.api_key, codec="binary"
            )
            responses = client.submit_many(batch)
            assert all(
                isinstance(r, AuthenticationResponse) for r in responses
            )
            # The split frame hit both shards but charged once, pre-split:
            # 8-token burst minus one 4-request frame, not minus 2 x 4.
            assert _quota_tokens(quota_path) == pytest.approx(4.0, abs=0.01)
            assert router.telemetry.counter_value("router.quota_charges") == 1

            responses = client.submit_many(batch)
            assert all(
                isinstance(r, AuthenticationResponse) for r in responses
            )
            assert _quota_tokens(quota_path) == pytest.approx(0.0, abs=0.01)

            # The drained budget now throttles the next frame at the
            # router — typed, with the charge never taken.
            assert (
                classify_call(lambda: client.submit_many(batch))
                == OUTCOME_THROTTLED
            )
            assert router.telemetry.counter_value("router.quota_throttled") >= 1
            assert router.telemetry.counter_value("router.server_errors") == 0


def test_total_frame_failure_refunds_the_prepaid_charge(
    chaos_fleet, probes, tmp_path
):
    registry_root = _registry_root(chaos_fleet)
    quota_path = tmp_path / "refund-quota.json"
    with WorkerPool(
        2,
        registry_root=registry_root,
        caller_rate=0.0001,
        caller_burst=8.0,
        quota_path=quota_path,
        no_queue=True,
        restart=False,  # the shard stays dead: the frame must fail
    ) as pool:
        with ShardRouter(pool, retry_policy=None) as router:
            batch = _split_across_shards(router.ring, probes)

            os.kill(pool.pids()[1], signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while pool.endpoint(1) is not None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.endpoint(1) is None

            client = ServiceClient(
                port=router.port, api_key=pool.api_key, codec="binary"
            )
            with pytest.raises(ValueError, match="shard-unavailable"):
                client.submit_many(batch)
            # The 4-token charge came back: a retry of the whole frame
            # will not pay twice for work that never ran.
            assert _quota_tokens(quota_path) == pytest.approx(8.0, abs=0.01)
            assert router.telemetry.counter_value("router.quota_refunds") == 1


def test_duplicate_prepaid_subframe_dispatch_never_charges_twice(
    chaos_fleet, probes, tmp_path
):
    """A post-dispatch retry re-sends a prepaid sub-frame the worker has
    already run; the quota ledger still moves once per request."""
    registry_root = _registry_root(chaos_fleet)
    quota_path = tmp_path / "duplicate-quota.json"
    with WorkerPool(
        2,
        registry_root=registry_root,
        caller_rate=0.0001,
        caller_burst=100.0,
        quota_path=quota_path,
        no_queue=True,
    ) as pool:
        with ShardRouter(pool, retry_policy=HEALING_RETRIES) as router:
            exchange = router.worker_exchange
            answered: set[bytes] = set()

            def reply_lost_once(shard, method, path, body=None, *args):
                result = exchange(shard, method, path, body, *args)
                if path == V2_REQUESTS_PATH and body not in answered:
                    # The worker ran the sub-frame but its reply is lost,
                    # so the router re-sends the very same prepaid bytes.
                    answered.add(body)
                    raise ShardUnavailable(shard, "reply lost", dispatched=True)
                return result

            router.worker_exchange = reply_lost_once
            batch = _split_across_shards(router.ring, probes)
            client = ServiceClient(
                port=router.port, api_key=pool.api_key, codec="binary"
            )
            n_frames = 3
            for _ in range(n_frames):
                responses = client.submit_many(batch)
                assert all(
                    isinstance(r, AuthenticationResponse) for r in responses
                )
            subframes = 2 * n_frames
            assert router.telemetry.counter_value("router.retries") == subframes
            # One latency sample per sub-frame exchange, retries included.
            assert router.telemetry.histogram("router.exchange").count == subframes
            # Every sub-frame reached its worker twice, prepaid both times...
            counters = router.fleet_metrics()["counters"]
            assert counters["transport.prepaid_frames"] == 2 * subframes
            # ...and the ledger moved by the request count, once.
            assert router.telemetry.counter_value("router.quota_charges") == n_frames
            assert _quota_tokens(quota_path) == pytest.approx(
                100.0 - n_frames * len(batch), abs=0.01
            )
            assert router.telemetry.counter_value("router.server_errors") == 0
