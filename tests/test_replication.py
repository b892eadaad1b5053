"""Tests for replicated shard groups: record framing, quorum commit
pricing, WAL shipping under link faults, read fan-out staleness,
epoch-fenced failover, divergent-tail truncation on rejoin, the
zero-lost-acknowledged-writes torture schedule, and the replicated
router/network front ends."""

import random

import pytest

from repro.db import EngineConfig
from repro.db.errors import (
    KeyNotFoundError,
    QuorumLostError,
    StaleEpochError,
)
from repro.net import (
    RDMA,
    SHARED_MEMORY,
    TCP_ETHERNET,
    ReplicatedBlobServer,
)
from repro.replica import (
    ReplicaGroup,
    ReplicatedShardedBlobDB,
    ReplicationRecord,
)
from repro.storage.faults import FaultPlan, FaultPlanFactory, FaultSpec

#: Heterogeneous member links: primary-local, fast RDMA, slow TCP.
HETERO_LINKS = [SHARED_MEMORY, RDMA, TCP_ETHERNET]


def small_config(**overrides):
    defaults = dict(device_pages=16384, wal_pages=512, catalog_pages=128,
                    buffer_pool_pages=4096)
    defaults.update(overrides)
    return EngineConfig(**defaults)


def make_group(quorum=2, n_replicas=2, **kwargs):
    return ReplicaGroup(n_replicas=n_replicas, quorum=quorum,
                        config=small_config(), **kwargs)


class TestReplicationRecord:
    def test_roundtrip_put_and_delete(self):
        put = ReplicationRecord(lsn=7, epoch=2, op="put", key=b"k",
                                payload=b"\x01\x02")
        assert ReplicationRecord.decode(put.encode()) == put
        dele = ReplicationRecord(lsn=8, epoch=2, op="delete", key=b"k")
        assert ReplicationRecord.decode(dele.encode()) == dele

    def test_wire_bytes_matches_encoding(self):
        rec = ReplicationRecord(lsn=1, epoch=1, op="put", key=b"abc",
                                payload=b"x" * 100)
        assert rec.wire_bytes() == len(rec.encode())

    def test_corruption_and_truncation_detected(self):
        raw = bytearray(ReplicationRecord(lsn=1, epoch=1, op="put",
                                          key=b"k", payload=b"v").encode())
        raw[5] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            ReplicationRecord.decode(bytes(raw))
        with pytest.raises(ValueError, match="truncated"):
            ReplicationRecord.decode(b"\x01\x00")

    def test_invalid_records_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ReplicationRecord(lsn=1, epoch=1, op="upsert", key=b"k")
        with pytest.raises(ValueError, match="no payload"):
            ReplicationRecord(lsn=1, epoch=1, op="delete", key=b"k",
                              payload=b"v")


class TestQuorumCommit:
    def test_write_read_roundtrip_and_convergence(self):
        group = make_group()
        for i in range(12):
            group.put(b"k%02d" % i, bytes([i]) * 200)
        group.delete(b"k00")
        group.drain()
        assert group.get(b"k03") == b"\x03" * 200
        assert not group.exists(b"k00")
        assert group.max_lag() == 0
        # Every member applied the full stream.
        for member in group.members:
            assert member.applied_lsn == group.primary.applied_lsn

    def test_commit_latency_strictly_ordered_by_quorum(self):
        elapsed = {}
        for quorum in (1, 2, 3):
            group = make_group(quorum=quorum, transport=HETERO_LINKS)
            for i in range(20):
                group.put(b"q%02d" % i, b"x" * 400)
            elapsed[quorum] = group.model.clock.now_ns
        # q=1 never waits for a link; q=2 waits for the fast RDMA ack
        # and hides the TCP replica; q=3 pays the slowest link.
        assert elapsed[1] < elapsed[2] < elapsed[3]

    def test_quorum_one_is_asynchronous(self):
        group = make_group(quorum=1, transport=HETERO_LINKS)
        solo = ReplicaGroup(n_replicas=0, quorum=1, config=small_config())
        group.put(b"k", b"v" * 100)
        solo.put(b"k", b"v" * 100)
        # Replicas still apply (on their own clocks) but the group
        # clock only pays the primary plus fan-out bookkeeping — the
        # same order of magnitude as an unreplicated engine.
        assert group.model.clock.now_ns < 2 * solo.model.clock.now_ns
        assert group.stats.records_shipped == 2

    def test_invalid_quorum_rejected(self):
        with pytest.raises(ValueError, match="quorum"):
            make_group(quorum=4)
        with pytest.raises(ValueError, match="quorum"):
            make_group(quorum=0)

    def test_acked_writes_and_makespan_observed(self):
        from repro import obs

        group = make_group()
        tracer = obs.attach(group.model)
        group.put(b"k", b"v" * 50)
        metrics = tracer.metrics
        assert metrics.counter("replica.acked_writes").total() == 1
        assert metrics.counter("replica.records_shipped").total() == 2
        assert metrics.histogram("replica.quorum_makespan_ns").count == 1


class TestWalShipping:
    def test_lost_exchanges_are_retried_inside_member_delta(self):
        links = FaultPlanFactory(FaultSpec(seed=13, network_error=0.3))
        group = make_group(link_faults=links)
        for i in range(25):
            group.put(b"n%02d" % i, b"p" * 150)
        group.drain()
        assert group.ship_retries() > 0
        assert group.max_lag() == 0
        for i in range(25):
            assert group.get(b"n%02d" % i) == b"p" * 150

    def test_partitioned_member_lags_then_catches_up(self):
        group = make_group()
        lagger = group.members[2]
        # Open a long partition window by hand: ships to member 2 fail
        # until its clock walks past the deadline via retry backoff.
        lagger.partitioned_until_ns = lagger.model.clock.now_ns + 3e6
        for i in range(6):
            group.put(b"p%d" % i, b"z" * 100)
        assert lagger.lag(group.primary.applied_lsn) > 0
        for _ in range(10):
            group.catch_up()
            if group.max_lag() == 0:
                break
        assert group.max_lag() == 0
        assert lagger.history == group.primary.history

    def test_catch_up_applies_strictly_in_lsn_order(self):
        group = make_group()
        lagger = group.members[1]
        lagger.partitioned_until_ns = lagger.model.clock.now_ns + 5e5
        group.put(b"a", b"1" * 64)
        group.put(b"b", b"2" * 64)
        group.put(b"c", b"3" * 64)
        for _ in range(10):
            group.catch_up()
            if group.max_lag() == 0:
                break
        assert [r.lsn for r in lagger.history] == \
            list(range(1, len(lagger.history) + 1))


class TestReadFanOut:
    def test_read_any_rotates_over_members(self):
        group = make_group()
        group.put(b"k", b"v" * 80)
        group.drain()
        before = [m.model.clock.now_ns for m in group.members]
        for _ in range(3):
            assert group.read_any(b"k") == b"v" * 80
        after = [m.model.clock.now_ns for m in group.members]
        # Three rotated reads touched all three members' clocks.
        assert all(b > a for a, b in zip(before, after))

    def test_stale_reads_are_counted_not_hidden(self):
        group = make_group()
        group.put(b"k", b"old" * 20)
        group.drain()
        lagger = group.members[1]
        lagger.partitioned_until_ns = lagger.model.clock.now_ns + 1e6
        group.put(b"k", b"new" * 20)
        assert lagger.lag(group.primary.applied_lsn) > 0
        values = {group.read_any(b"k") for _ in range(3)}
        # The lagging member served the stale value; accounting saw it.
        assert values == {b"old" * 20, b"new" * 20}
        assert group.stats.stale_reads >= 1

    def test_stale_read_may_miss_unreplicated_key(self):
        group = make_group()
        lagger = group.members[1]
        lagger.partitioned_until_ns = lagger.model.clock.now_ns + 1e6
        group.put(b"fresh", b"v")
        with pytest.raises(KeyNotFoundError):
            for _ in range(3):
                group.read_any(b"fresh")


class TestFailover:
    def test_crash_promotes_most_caught_up_replica(self):
        group = make_group()
        for i in range(8):
            group.put(b"k%d" % i, b"d" * 120)
        lagger = group.members[1]
        lagger.partitioned_until_ns = lagger.model.clock.now_ns + 1e9
        group.put(b"k8", b"d" * 120)  # member 1 misses this one
        assert group.members[2].applied_lsn > lagger.applied_lsn
        group.crash_primary()
        assert group.primary_id == 2  # highest applied LSN wins
        assert group.epoch == 2
        assert group.stats.failovers == 1
        for i in range(9):
            assert group.get(b"k%d" % i) == b"d" * 120

    def test_election_tie_breaks_to_lowest_member_id(self):
        group = make_group()
        group.put(b"k", b"v" * 60)
        group.drain()  # both replicas at the same LSN
        group.crash_primary()
        assert group.primary_id == 1

    def test_failover_advances_group_clock(self):
        group = make_group()
        group.put(b"k", b"v" * 60)
        before = group.model.clock.now_ns
        group.crash_primary()
        assert group.model.clock.now_ns > before
        assert group.stats.last_failover_ns > 0

    def test_mid_crash_record_dropped_when_unshipped(self):
        group = make_group()
        group.put(b"safe", b"s" * 90)
        group.crash_primary(mid_record=(b"mid", b"m" * 90, 0))
        assert group.get(b"safe") == b"s" * 90
        assert not group.exists(b"mid")

    def test_mid_crash_record_survives_when_shipped(self):
        group = make_group()
        group.put(b"safe", b"s" * 90)
        group.crash_primary(mid_record=(b"mid", b"m" * 90, 2))
        # A shipped copy reached the most-caught-up replica, which won
        # the election: the un-acked record survives whole.
        assert group.get(b"mid") == b"m" * 90

    def test_no_candidates_raises_quorum_lost(self):
        group = ReplicaGroup(n_replicas=0, quorum=1, config=small_config())
        group.put(b"k", b"v")
        with pytest.raises(QuorumLostError):
            group.crash_primary()

    def test_quorum_loss_fails_over_and_retries_write(self):
        group = make_group()
        group.put(b"k0", b"v" * 50)
        # Partition BOTH replicas: the next commit cannot reach quorum,
        # the controller promotes a replica and retries — which also
        # fails (the old primary is not a candidate... it is alive) —
        # so promotion picks a replica and the retry commits with the
        # old primary acting as the ack source.
        for member in group.replicas():
            member.partitioned_until_ns = \
                member.model.clock.now_ns + 10e6
        group.put(b"k1", b"w" * 50)
        assert group.stats.quorum_losses >= 1
        assert group.stats.failovers >= 1
        assert group.get(b"k1") == b"w" * 50


class TestEpochFencingAndRejoin:
    def test_fence_rejects_stale_epoch(self):
        group = make_group()
        group.put(b"k", b"v")
        group.crash_primary()
        with pytest.raises(StaleEpochError):
            group._fence(1)

    def test_rejoin_truncates_divergent_tail(self):
        group = make_group()
        for i in range(6):
            group.put(b"k%d" % i, b"v" * 70)
        old_primary = group.primary_id
        # Crash with an unshipped mid-record: it exists only on the
        # old primary — a divergent tail past the fence point.
        group.crash_primary(mid_record=(b"orphan", b"o" * 70, 0))
        report = group.rejoin(old_primary)
        assert report["truncated"] >= 1
        assert group.stats.fenced_ships == 1
        member = group.members[old_primary]
        assert member.alive and member.epoch == group.epoch
        assert not member.db.exists("blobs", b"orphan")
        # The rejoined member's state matches the authoritative log.
        assert member.applied_lsn == group.primary.applied_lsn
        assert member.history == group.primary.history

    def test_rejoined_member_serves_writes_again(self):
        group = make_group()
        group.put(b"a", b"1" * 40)
        old_primary = group.primary_id
        group.crash_primary()
        group.rejoin(old_primary)
        group.put(b"b", b"2" * 40)
        group.drain()
        assert group.max_lag() == 0
        member = group.members[old_primary]
        assert member.db.read_blob("blobs", b"b") == b"2" * 40

    def test_rejoin_current_primary_rejected(self):
        group = make_group()
        with pytest.raises(ValueError):
            group.rejoin(group.primary_id)

    def test_second_failover_increments_epoch_again(self):
        group = make_group()
        group.put(b"k", b"v" * 30)
        first_old = group.primary_id
        group.crash_primary()
        group.rejoin(first_old)
        group.put(b"k2", b"w" * 30)
        group.crash_primary()
        assert group.epoch == 3
        assert group.get(b"k2") == b"w" * 30


class TestZeroLossTorture:
    """Kill the primary at a drawn batch index under link faults, fail
    over, and assert the zero-loss contract: every quorum-acked write
    readable byte-exact, every un-acked mid-record all-or-nothing."""

    SEEDS = range(300, 330)

    @staticmethod
    def _run_schedule(seed):
        links = FaultPlanFactory(FaultSpec(
            seed=seed, network_error=0.05, latency_spike=0.02,
            latency_spike_ns=300_000.0, partition=0.01,
            partition_max_ns=1_500_000.0))
        group = ReplicaGroup(n_replicas=2, quorum=2,
                             config=small_config(), link_faults=links,
                             name=f"torture{seed}")
        rng = random.Random(seed)
        acked = {}
        n_writes = rng.randrange(10, 24)
        for i in range(n_writes):
            key = b"t%04d" % i
            data = rng.randbytes(rng.randrange(50, 250))
            group.put(key, data)
            acked[key] = data
        old_primary = group.primary_id
        mid = (b"t-mid", rng.randbytes(100), rng.randrange(0, 3))
        group.crash_primary(mid_record=mid)
        return group, acked, mid, old_primary

    def test_no_acked_write_lost_across_seeded_schedules(self):
        for seed in self.SEEDS:
            group, acked, (mid_key, mid_data, _), old = \
                self._run_schedule(seed)
            for key, data in sorted(acked.items()):
                assert group.get(key) == data, (seed, key)
            if group.exists(mid_key):  # all-or-nothing, never torn
                assert group.get(mid_key) == mid_data, seed
            group.rejoin(old)
            for key, data in sorted(acked.items()):
                assert group.get(key) == data, (seed, key)
            member = group.members[old]
            assert member.applied_lsn == group.primary.applied_lsn

    def test_torture_is_deterministic(self):
        def digest(seed):
            group, acked, _, old = self._run_schedule(seed)
            group.rejoin(old)
            s = group.stats
            return (group.epoch, group.primary_id, s.acked_writes,
                    s.records_shipped, group.ship_retries(),
                    s.truncated_records, s.last_failover_ns,
                    group.model.clock.now_ns)
        assert [digest(s) for s in (301, 305)] == \
            [digest(s) for s in (301, 305)]


class TestReplicatedShardedBlobDB:
    def test_batches_route_and_quorum_commit(self):
        rdb = ReplicatedShardedBlobDB(n_groups=3, n_replicas=2, quorum=2,
                                      config=small_config())
        items = [(b"key%03d" % i, bytes([i % 250]) * 90)
                 for i in range(30)]
        rdb.multiput(items)
        assert rdb.multiget([k for k, _ in items]) == \
            [v for _, v in items]
        rdb.delete(items[0][0])
        assert not rdb.exists(items[0][0])

    def test_group_failover_is_local_to_its_group(self):
        rdb = ReplicatedShardedBlobDB(n_groups=3, n_replicas=2, quorum=2,
                                      config=small_config())
        items = [(b"key%03d" % i, b"v" * 60) for i in range(30)]
        rdb.multiput(items)
        epochs_before = [g.epoch for g in rdb.groups]
        rdb.crash_primary(1, mid_record=(b"zz-mid", b"m" * 40, 0))
        assert rdb.groups[1].epoch == epochs_before[1] + 1
        assert [g.epoch for i, g in enumerate(rdb.groups) if i != 1] == \
            [e for i, e in enumerate(epochs_before) if i != 1]
        for key, value in items:
            assert rdb.get(key) == value
        rdb.rejoin(1, [m.member_id for m in rdb.groups[1].members
                       if m.member_id != rdb.groups[1].primary_id][0])
        rdb.drain()

    def test_aggregated_report_sums_replication_counters(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=2, quorum=2,
                                      config=small_config())
        rdb.multiput([(b"k%d" % i, b"v" * 50) for i in range(10)])
        rdb.crash_primary(0)
        report = rdb.stats_report()
        assert report.replica_groups == 2
        assert report.replica_members == 6
        assert report.replica_quorum == 2
        assert report.replica_acked_writes == 10
        assert report.replica_failovers == 1
        assert report.shard_count == 2
        assert "replication:" in report.format()

    def test_read_any_routes_to_owning_group(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=1, quorum=2,
                                      config=small_config())
        rdb.put(b"k", b"v" * 44)
        rdb.drain()
        for _ in range(3):
            assert rdb.read_any(b"k") == b"v" * 44


class TestReplicatedBlobServer:
    def test_lost_client_sub_exchange_is_retried_per_group(self):
        rdb = ReplicatedShardedBlobDB(n_groups=3, n_replicas=2, quorum=2,
                                      config=small_config())
        server = ReplicatedBlobServer(
            rdb, TCP_ETHERNET,
            fault_plan=FaultPlan(FaultSpec(seed=6, network_error=0.25)),
            retry_attempts=5)
        items = [(b"s%03d" % i, b"v" * (40 + i)) for i in range(24)]
        server.multiput(items)
        assert server.multiget([k for k, _ in items]) == \
            [v for _, v in items]
        assert sum(r.stats.retries for r in server.retries) > 0

    def test_read_any_and_delete_through_server(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=2, quorum=2,
                                      config=small_config())
        server = ReplicatedBlobServer(rdb, TCP_ETHERNET)
        server.put(b"k", b"v" * 30)
        rdb.drain()
        assert server.read_any(b"k") == b"v" * 30
        server.delete(b"k")
        assert not rdb.exists(b"k")

    def test_makespan_advances_router_clock_only_once(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, n_replicas=2, quorum=2,
                                      config=small_config())
        server = ReplicatedBlobServer(rdb, TCP_ETHERNET)
        before = rdb.model.clock.now_ns
        # Heavy enough sub-batches that per-group work dwarfs the
        # router's fixed fan-out/dispatch charges.
        server.multiput([(b"key%03d" % i, bytes([i]) * 4096)
                         for i in range(16)])
        advance = rdb.model.clock.now_ns - before
        deltas = [g.model.clock.now_ns for g in rdb.groups]
        # Router pays the slowest group plus fan-out/dispatch charges,
        # never the sum over groups.
        assert advance < sum(deltas)
        assert advance >= max(deltas)

    def test_transport_count_must_match_groups(self):
        rdb = ReplicatedShardedBlobDB(n_groups=2, config=small_config())
        with pytest.raises(ValueError, match="transport"):
            ReplicatedBlobServer(rdb, [TCP_ETHERNET])


class TestBenchReplication:
    def test_storm_reproducible_and_lossless(self, storm_doc):
        from repro.bench.baseline import run_replication_storm

        a = storm_doc  # run_replication_storm(n_schedules=6, base_seed=400)
        b = run_replication_storm(n_schedules=6, base_seed=400)
        assert a == b  # same seed -> byte-identical document
        assert a["lost_acked_writes"] == 0
        assert a["torn_records"] == 0
        assert a["failovers"] >= 6
        assert a["rejoins"] == 6
        different = run_replication_storm(n_schedules=6, base_seed=500)
        assert different["digest"] != a["digest"]
