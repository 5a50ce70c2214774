"""Multi-tenant isolation and backpressure.

Tenant isolation is structural (one actor per tenant, nothing shared),
and these tests pin it behaviorally: K tenants streaming interleaved
and concurrently through one daemon must each land on state
byte-identical to K independent single-tenant batch replays.  The
backpressure tests pin the bounded-inbox contract: a submission beyond
the bound blocks (it does not drop, error, or grow the queue) until
the tenant's task drains, and the stall is counted.  Each tenant's
task stalls only that tenant: a checkpoint blocked on the IO thread
leaves every other tenant served.
"""

import asyncio
import threading

from repro.core.correlator import Action, ObservedReference
from repro.service.tenant import (CheckpointRequest, EventBatch,
                                  batch_hoard_fill)
from repro.simulation.serde import canonical_bytes

from tests.service.helpers import (
    client_for,
    daemon_on_socket,
    references_from_stream,
    run_async,
)

BUDGET = 4_000

TENANTS = ["alpha", "beta", "gamma", "delta", "epsilon"]


def stream_for(tenant):
    """A distinct, deterministic event stream per tenant."""
    salt = sum(tenant.encode())
    stream = []
    for index in range(240):
        kind = ["open", "close", "point", "stat", "open",
                "exec"][(index + salt) % 6]
        pid = 1 + (index + salt) % 3
        path = f"/home/{tenant}/f{(index * 7 + salt) % 9}"
        stream.append((kind, pid, path, "", 0))
    return references_from_stream(stream)


async def interleaved_session(tmp_path, concurrent):
    """All tenants through one daemon; returns tenant -> fill payload.

    With ``concurrent=False`` batches are strictly interleaved
    round-robin on one task; with ``concurrent=True`` every tenant
    runs its own client task flat-out against the daemon's per-tenant
    tasks.
    """
    streams = {tenant: stream_for(tenant) for tenant in TENANTS}
    fills = {}
    async with daemon_on_socket(tmp_path) as (daemon, socket_path):
        clients = {tenant: client_for(tenant, socket_path)
                   for tenant in TENANTS}
        for client in clients.values():
            await client.connect()
        try:
            async def drive(tenant):
                references = streams[tenant]
                for start in range(0, len(references), 16):
                    await clients[tenant].send_events(
                        references[start:start + 16], stamp=False)
                fills[tenant] = await clients[tenant].hoard_fill(BUDGET)

            if concurrent:
                await asyncio.gather(*(drive(t) for t in TENANTS))
            else:
                # Round-robin interleave, one batch at a time.
                cursors = {tenant: 0 for tenant in TENANTS}
                while any(cursors[t] < len(streams[t]) for t in TENANTS):
                    for tenant in TENANTS:
                        start = cursors[tenant]
                        if start >= len(streams[tenant]):
                            continue
                        await clients[tenant].send_events(
                            streams[tenant][start:start + 16], stamp=False)
                        cursors[tenant] = start + 16
                for tenant in TENANTS:
                    fills[tenant] = await clients[tenant].hoard_fill(BUDGET)
        finally:
            for client in clients.values():
                await client.close()
    return fills


def assert_each_tenant_matches_solo_replay(fills):
    for tenant in TENANTS:
        solo = batch_hoard_fill(stream_for(tenant), BUDGET)
        assert canonical_bytes(fills[tenant]) == canonical_bytes(solo), \
            f"tenant {tenant} diverged from its solo replay"


def test_interleaved_tenants_match_independent_runs(tmp_path):
    fills = run_async(interleaved_session(tmp_path, concurrent=False))
    assert_each_tenant_matches_solo_replay(fills)


def test_concurrent_tenants_match_independent_runs(tmp_path):
    fills = run_async(interleaved_session(tmp_path, concurrent=True))
    assert_each_tenant_matches_solo_replay(fills)


def test_tenants_share_no_files(tmp_path):
    """Cross-contamination canary: no tenant's hoard may contain
    another tenant's paths (streams use disjoint path spaces)."""
    fills = run_async(interleaved_session(tmp_path, concurrent=True))
    for tenant in TENANTS:
        prefix = f"/home/{tenant}/"
        assert fills[tenant]["files"], f"tenant {tenant} hoarded nothing"
        for path in fills[tenant]["files"]:
            assert path.startswith(prefix)


def _reference(seq):
    return ObservedReference(seq=seq, time=float(seq), pid=1,
                             action=Action.OPEN, path="/x/y")


class PutGate:
    """Holds each checkpoint-store ``put`` on the daemon's IO thread
    until the test lets it through: a real stall of whatever task
    awaits the checkpoint."""

    def __init__(self, daemon):
        store = daemon._store
        self._put = store.put
        self._passes = 0.0
        self._condition = threading.Condition()
        self.entered = threading.Event()
        store.put = self.put

    def put(self, *args):
        self.entered.set()
        with self._condition:
            self._condition.wait_for(lambda: self._passes > 0, timeout=30)
            self._passes -= 1
        return self._put(*args)

    def allow(self, count=float("inf")):
        with self._condition:
            self._passes += count
            self._condition.notify_all()


async def until(predicate, timeout=5.0):
    """Yield to the loop until *predicate* holds (or fail)."""
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline
        await asyncio.sleep(0.001)


async def submit_beyond_bound(tmp_path):
    """A submission past the inbox bound blocks until the queue drains."""
    async with daemon_on_socket(tmp_path, queue_bound=2,
                                checkpoint_dir=str(tmp_path / "ckpt")) \
            as (daemon, _):
        gate = PutGate(daemon)
        actor = daemon.actor_for("t")
        loop = asyncio.get_running_loop()
        first, second = (CheckpointRequest(future=loop.create_future())
                         for _ in range(2))
        # The tenant's task takes the first checkpoint and stalls on
        # the IO thread, so nothing drains the inbox behind our back.
        await daemon.submit(actor, first)
        await until(gate.entered.is_set)

        await daemon.submit(actor, second)
        await daemon.submit(actor, EventBatch([_reference(1)]))
        assert daemon.metrics.counter("service.queue_full_waits") == 0

        blocked = loop.create_task(
            daemon.submit(actor, EventBatch([_reference(2)])))
        await asyncio.sleep(0.01)
        assert not blocked.done()            # bounded: the producer stalls
        assert actor.inbox.qsize() == 2      # ...and nothing was dropped
        assert daemon.metrics.counter("service.queue_full_waits") == 1

        # One put through: the task finishes the first checkpoint and
        # takes the second off the inbox, freeing exactly one slot.
        gate.allow(1)
        await asyncio.wait_for(first.future, timeout=5)
        await asyncio.wait_for(blocked, timeout=5)  # the producer resumed
        assert actor.inbox.qsize() == 2
        assert not second.future.done()

        gate.allow()
        await asyncio.wait_for(second.future, timeout=5)
        await asyncio.wait_for(actor.inbox.join(), timeout=5)
        assert actor.events_ingested == 2


def test_backpressure_blocks_at_queue_bound(tmp_path):
    run_async(submit_beyond_bound(tmp_path))


async def checkpoint_stalls_only_its_tenant(tmp_path):
    """Tenant A's checkpoint blocked on the IO thread must not delay
    tenant B's fill: each tenant's inbox is drained by its own task."""
    async with daemon_on_socket(tmp_path,
                                checkpoint_dir=str(tmp_path / "ckpt")) \
            as (daemon, socket_path):
        async with client_for("a", socket_path) as client_a, \
                client_for("b", socket_path) as client_b:
            # Both tenants exist before the IO thread is blocked: first
            # contact reads the checkpoint store on that thread.
            await client_a.send_events(stream_for("alpha"), stamp=False)
            await client_b.send_events(stream_for("beta"), stamp=False)
            gate = PutGate(daemon)
            checkpoint = asyncio.get_running_loop().create_task(
                client_a.checkpoint())
            await until(gate.entered.is_set)
            fill = await asyncio.wait_for(client_b.hoard_fill(BUDGET),
                                          timeout=10)
            assert canonical_bytes(fill) == canonical_bytes(
                batch_hoard_fill(stream_for("beta"), BUDGET))
            assert not checkpoint.done()
            gate.allow()
            assert (await asyncio.wait_for(checkpoint, timeout=10))[
                "checkpointed"] == "a"


def test_checkpoint_stalls_only_its_own_tenant(tmp_path):
    run_async(checkpoint_stalls_only_its_tenant(tmp_path))


async def contended_worker_pool(tmp_path):
    """Every tenant flat-out with tiny inboxes: submissions must
    backpressure (block), never drop, and every tenant must end
    exactly convergent with its solo replay.

    (Each tenant still has exactly one writer -- the wire contract;
    the contention here is tenants racing for the one event loop.)
    """
    fills = {}
    async with daemon_on_socket(tmp_path, queue_bound=2) \
            as (daemon, socket_path):

        async def drive(tenant):
            references = stream_for(tenant)
            async with client_for(tenant, socket_path) as client:
                for start in range(0, len(references), 4):
                    await client.send_events(references[start:start + 4],
                                             stamp=False)
                stats = await client.stats()
                assert stats["tenant_stats"]["events_ingested"] == \
                    len(references)
                fills[tenant] = await client.hoard_fill(BUDGET)

        await asyncio.gather(*(drive(tenant) for tenant in TENANTS))
    return fills


def test_contended_worker_pool_still_matches_batch(tmp_path):
    fills = run_async(contended_worker_pool(tmp_path))
    assert_each_tenant_matches_solo_replay(fills)
