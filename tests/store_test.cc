#include "store/object_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "queries/queries.h"
#include "service/query_service.h"
#include "service/trace.h"
#include "store/recovery.h"
#include "test_shards.h"
#include "workload/churn.h"
#include "workload/generators.h"

namespace updb {
namespace store {
namespace {

using test_util::TestShards;

StoreOptions TestOptions() {
  StoreOptions opts;
  opts.num_shards = TestShards();
  return opts;
}

UncertainDatabase MakeDb(size_t n, double extent, uint64_t seed = 7) {
  workload::SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = extent;
  cfg.seed = seed;
  return workload::MakeSyntheticDatabase(cfg);
}

std::shared_ptr<const Pdf> MakePdf(double x, double y, double extent,
                                   uint64_t seed = 5) {
  Rng rng(seed);
  return workload::MakeQueryObject(Point{x, y}, extent,
                                   workload::ObjectModel::kUniform, 0, rng);
}

/// Replays `trace` against a service pinned to `snap` and returns the
/// combined response digest.
uint64_t PinnedDigest(std::shared_ptr<const StoreSnapshot> snap,
                      const std::vector<service::QueryRequest>& trace,
                      size_t workers = 2, size_t batch = 4) {
  service::QueryServiceOptions opts;
  opts.num_workers = workers;
  opts.batch_size = batch;
  opts.max_queue = trace.size() + 1;
  service::QueryService svc(std::move(snap), opts);
  const service::ReplayResult result =
      service::ReplayTrace(svc, trace, /*qps=*/0.0);
  return service::ResponseDigest(result.responses);
}

/// (MinDist, global dense id) pairs of a nearest-first scan.
using ScanList = std::vector<std::pair<double, ObjectId>>;

/// Shard s's nearest-first scan from `probe` as emitted, told to stop
/// after `limit` entries: the callback returns false on the entry after
/// them. `calls`, when set, counts the callback's invocations.
ScanList ShardScan(const ShardedSnapshotIndex& index, size_t s,
                   const Rect& probe,
                   size_t limit = std::numeric_limits<size_t>::max(),
                   size_t* calls = nullptr) {
  ScanList out;
  index.ShardScanByMinDist(s, probe, [&](ObjectId id, double d) {
    if (calls != nullptr) ++*calls;
    if (out.size() == limit) return false;
    out.emplace_back(d, id);
    return true;
  });
  return out;
}

/// Every shard's full scan from `probe`, concatenated in shard order.
/// Expects each shard's stream to ascend in distance, every emitted
/// distance to be bit for bit the MinDist of the database box the id
/// names (the box the candidate filters read instead of the index's), and
/// the shards together to emit every live global dense id of `snap`
/// exactly once.
ScanList ScanEveryShard(const StoreSnapshot& snap, const Rect& probe) {
  const UncertainDatabase& db = *snap.db();
  const LpNorm norm = LpNorm::Euclidean();
  ScanList all;
  for (size_t s = 0; s < snap.num_shards(); ++s) {
    const ScanList scan = ShardScan(snap.index(), s, probe);
    EXPECT_EQ(scan.size(), snap.shard_size(s)) << "shard=" << s;
    for (size_t i = 1; i < scan.size(); ++i) {
      EXPECT_LE(scan[i - 1].first, scan[i].first) << "shard=" << s;
    }
    for (const auto& [d, id] : scan) {
      if (id >= db.size()) {
        ADD_FAILURE() << "shard=" << s << " id=" << id << " not dense";
        continue;
      }
      const std::span<const Interval> box = db.mbr_box(id);
      const double expected =
          norm.MinDist(Rect(std::vector<Interval>(box.begin(), box.end())),
                       probe);
      EXPECT_EQ(std::bit_cast<uint64_t>(d), std::bit_cast<uint64_t>(expected))
          << "shard=" << s << " id=" << id << " d=" << d
          << " db MinDist=" << expected;
    }
    all.insert(all.end(), scan.begin(), scan.end());
  }
  std::vector<ObjectId> ids, every(snap.size());
  for (const auto& [d, id] : all) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  std::iota(every.begin(), every.end(), ObjectId{0});
  EXPECT_EQ(ids, every);
  return all;
}

TEST(VersionedObjectStoreTest, InsertUpdateRemoveAndWal) {
  VersionedObjectStore s(TestOptions());
  EXPECT_EQ(s.version(), 0u);
  EXPECT_EQ(s.live_size(), 0u);
  EXPECT_EQ(s.dim(), 0u);

  const StatusOr<ObjectId> a = s.Insert(MakePdf(0.2, 0.2, 0.02));
  const StatusOr<ObjectId> b = s.Insert(MakePdf(0.8, 0.8, 0.02));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(s.dim(), 2u);
  EXPECT_EQ(s.pending_mutations(), 2u);

  // The write-ahead window records application order and assigned ids.
  const std::vector<WalRecord> wal = s.PendingLog();
  ASSERT_EQ(wal.size(), 2u);
  EXPECT_EQ(wal[0].sequence, 1u);
  EXPECT_EQ(wal[0].id, 0u);
  EXPECT_EQ(wal[1].sequence, 2u);
  EXPECT_EQ(wal[1].kind, WalRecordKind::kInsert);

  EXPECT_TRUE(s.Update(*a, MakePdf(0.3, 0.3, 0.02)).ok());
  EXPECT_TRUE(s.Remove(*b).ok());
  EXPECT_EQ(s.live_size(), 1u);
  EXPECT_EQ(s.pending_mutations(), 4u);
  EXPECT_EQ(s.total_mutations(), 4u);

  // Rejected mutations leave state and WAL untouched.
  EXPECT_EQ(s.Remove(*b).code(), StatusCode::kNotFound);
  EXPECT_EQ(s.Update(99, MakePdf(0.1, 0.1, 0.02)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(s.Insert(nullptr).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Insert(MakePdf(0.5, 0.5, 0.02), 1.5).status().code(),
            StatusCode::kInvalidArgument);
  const auto three_d = std::make_shared<UniformPdf>(
      Rect(Point{0, 0, 0}, Point{1, 1, 1}));
  EXPECT_EQ(s.Insert(three_d).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.pending_mutations(), 4u);

  const auto snap = s.Publish();
  EXPECT_EQ(snap->version(), 1u);
  EXPECT_EQ(snap->size(), 1u);
  EXPECT_EQ(s.pending_mutations(), 0u);
  // Stable ids are never reused.
  const StatusOr<ObjectId> c = s.Insert(MakePdf(0.6, 0.6, 0.02));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, 2u);
}

/// A NaN existence fails every comparison, so a range check written as
/// `e <= 0 || e > 1` lets it through — and the next Publish() aborts when
/// it materializes the object. Live writes reject it as InvalidArgument
/// and replay as DataLoss, both through the one mutation check.
TEST(VersionedObjectStoreTest, NanExistenceIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  VersionedObjectStore s(TestOptions());
  const StatusOr<ObjectId> a = s.Insert(MakePdf(0.2, 0.2, 0.02));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(s.Insert(MakePdf(0.4, 0.4, 0.02), nan).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.Update(*a, MakePdf(0.3, 0.3, 0.02), nan).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(s.pending_mutations(), 1u);
  const auto snap = s.Publish();
  ASSERT_EQ(snap->size(), 1u);
  EXPECT_EQ(snap->db()->objects()[0].existence(), 1.0);

  VersionedObjectStore replay(TestOptions());
  WalRecord record;
  record.kind = WalRecordKind::kInsert;
  record.sequence = 1;
  record.id = 0;
  record.pdf = MakePdf(0.2, 0.2, 0.02);
  record.existence = nan;
  EXPECT_EQ(replay.ApplyForRecovery(record).code(), StatusCode::kDataLoss);
  record.existence = 0.5;
  ASSERT_TRUE(replay.ApplyForRecovery(record).ok());
  record.kind = WalRecordKind::kUpdate;
  record.sequence = 2;
  record.existence = nan;
  EXPECT_EQ(replay.ApplyForRecovery(record).code(), StatusCode::kDataLoss);
  EXPECT_EQ(replay.pending_mutations(), 1u);
}

TEST(VersionedObjectStoreTest, DenseStableTranslation) {
  VersionedObjectStore s(MakeDb(5, 0.05), TestOptions());
  ASSERT_TRUE(s.Remove(2).ok());
  const auto snap = s.Publish();
  ASSERT_EQ(snap->size(), 4u);
  // Dense ids re-pack in ascending stable order: 0,1,3,4.
  EXPECT_EQ(snap->StableId(0), 0u);
  EXPECT_EQ(snap->StableId(2), 3u);
  EXPECT_EQ(snap->StableId(3), 4u);
  EXPECT_EQ(*snap->DenseId(4), 3u);
  EXPECT_EQ(snap->DenseId(2).status().code(), StatusCode::kNotFound);
  // The materialized database and the index agree on the dense space.
  EXPECT_EQ(snap->db()->size(), 4u);
  EXPECT_EQ(snap->index().entry_count(), 4u);
  EXPECT_TRUE(snap->index().Validate());
}

TEST(VersionedObjectStoreTest, SnapshotIsolationUnderMutation) {
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(25, 0.08), TestOptions());
  const auto pinned = store->latest();
  ASSERT_EQ(pinned->version(), 1u);

  service::TraceConfig tcfg;
  tcfg.num_requests = 12;
  tcfg.seed = 42;
  tcfg.query_extent = 0.08;
  tcfg.budget.max_iterations = 3;
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(*pinned->db(), tcfg);
  const uint64_t before = PinnedDigest(pinned, trace);

  // Heavy churn after the snapshot was taken.
  Rng rng(9);
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 20;
  ccfg.max_extent = 0.08;
  for (int i = 0; i < 4; ++i) {
    workload::ApplyMutationBatch(
        *store,
        workload::MakeMutationBatch(store->LiveIds(), 2, ccfg, rng));
    store->Publish();
  }
  EXPECT_GT(store->version(), 1u);

  // The old snapshot is untouched: same size, same payloads, bit-identical
  // digest — and it answers even though newer versions exist.
  EXPECT_EQ(pinned->size(), 25u);
  EXPECT_EQ(PinnedDigest(pinned, trace), before);
}

/// Acceptance: a delta-overlay snapshot and an always-rebuilt snapshot of
/// the same mutation history are indistinguishable — identical index
/// scans and bit-identical response payloads at every version.
TEST(VersionedObjectStoreTest, OverlayMatchesRebuiltIndex) {
  StoreOptions overlay_opts = TestOptions();
  overlay_opts.compact_delta_fraction = 10.0;  // never compact
  overlay_opts.snapshot_retention = 16;
  StoreOptions rebuild_opts = TestOptions();
  rebuild_opts.compact_delta_fraction = 0.0;  // rebuild every publish
  rebuild_opts.snapshot_retention = 16;
  const UncertainDatabase seed_db = MakeDb(40, 0.08);
  VersionedObjectStore overlay_store(seed_db, overlay_opts);
  VersionedObjectStore rebuild_store(seed_db, rebuild_opts);

  Rng rng(31);
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 14;
  ccfg.max_extent = 0.08;
  ccfg.uncertain_existence_fraction = 0.2;
  service::TraceConfig tcfg;
  tcfg.num_requests = 10;
  tcfg.query_extent = 0.08;
  tcfg.budget.max_iterations = 3;

  for (int round = 0; round < 5; ++round) {
    // One deterministic batch, applied to both stores.
    const std::vector<Mutation> batch =
        workload::MakeMutationBatch(overlay_store.LiveIds(), 2, ccfg, rng);
    ASSERT_TRUE(workload::ApplyMutationBatch(overlay_store, batch).ok());
    ASSERT_TRUE(workload::ApplyMutationBatch(rebuild_store, batch).ok());
    const auto snap_overlay = overlay_store.Publish();
    const auto snap_rebuild = rebuild_store.Publish();
    ASSERT_EQ(snap_overlay->version(), snap_rebuild->version());
    ASSERT_EQ(snap_overlay->size(), snap_rebuild->size());
    EXPECT_TRUE(snap_overlay->index().Validate());
    EXPECT_TRUE(snap_rebuild->index().Validate());
    EXPECT_GT(snap_overlay->index().delta_entries(), 0u);
    EXPECT_TRUE(snap_rebuild->index().compacted());

    // The per-shard scans cover the same dense ids at the same distances
    // (each shard's stream ascending); only equal-distance ties may
    // order differently.
    const Rect probe = Rect::FromPoint(Point{0.5, 0.5});
    ScanList scan_overlay = ScanEveryShard(*snap_overlay, probe);
    ScanList scan_rebuild = ScanEveryShard(*snap_rebuild, probe);
    std::sort(scan_overlay.begin(), scan_overlay.end());
    std::sort(scan_rebuild.begin(), scan_rebuild.end());
    EXPECT_EQ(scan_overlay, scan_rebuild);

    // Served payloads are bit-identical (digest covers the version, which
    // matches by construction).
    tcfg.seed = 100 + static_cast<uint64_t>(round);
    const std::vector<service::QueryRequest> trace =
        service::MakeTrace(*snap_overlay->db(), tcfg);
    EXPECT_EQ(PinnedDigest(snap_overlay, trace),
              PinnedDigest(snap_rebuild, trace))
        << "round=" << round;
  }
}

TEST(VersionedObjectStoreTest, CompactionTriggersPastThreshold) {
  StoreOptions opts;
  opts.compact_delta_fraction = 0.25;
  VersionedObjectStore s(MakeDb(40, 0.05), opts);
  ASSERT_TRUE(s.latest()->index().compacted());
  // A small batch stays an overlay; repeated batches cross 0.25 * 40 and
  // compact back to delta 0.
  Rng rng(3);
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 6;
  ccfg.max_extent = 0.05;
  bool saw_overlay = false, saw_compaction = false;
  for (int i = 0; i < 6; ++i) {
    workload::ApplyMutationBatch(
        s, workload::MakeMutationBatch(s.LiveIds(), 2, ccfg, rng));
    const auto snap = s.Publish();
    EXPECT_TRUE(snap->index().Validate());
    if (snap->index().compacted()) {
      saw_compaction = true;
    } else {
      saw_overlay = true;
    }
  }
  EXPECT_TRUE(saw_overlay);
  EXPECT_TRUE(saw_compaction);
}

TEST(VersionedObjectStoreTest, SnapshotRetentionEvictsFifo) {
  StoreOptions opts;
  opts.snapshot_retention = 2;
  VersionedObjectStore s(MakeDb(5, 0.05), opts);  // publishes version 1
  s.Insert(MakePdf(0.5, 0.5, 0.02)).status();
  s.Publish();  // version 2
  s.Publish();  // version 3 (empty window is allowed)
  EXPECT_EQ(s.version(), 3u);
  EXPECT_NE(s.snapshot(3), nullptr);
  EXPECT_NE(s.snapshot(2), nullptr);
  EXPECT_EQ(s.snapshot(1), nullptr);  // evicted
  EXPECT_EQ(s.snapshot(99), nullptr);
  // An evicted version a reader still holds stays alive via shared_ptr
  // (checked implicitly by SnapshotIsolationUnderMutation).
}

/// Acceptance: the shard count is invisible in snapshot contents — the
/// same mutation history served at num_shards ∈ {1, 2, 7} yields the same
/// dense materialization, identical index scans, and bit-identical
/// response payloads at every version.
TEST(VersionedObjectStoreTest, ShardedMatchesUnshardedDigests) {
  constexpr size_t kShardCounts[] = {1, 2, 7};
  const UncertainDatabase seed_db = MakeDb(40, 0.08);
  std::vector<std::unique_ptr<VersionedObjectStore>> stores;
  for (size_t shards : kShardCounts) {
    StoreOptions opts;
    opts.num_shards = shards;
    stores.push_back(
        std::make_unique<VersionedObjectStore>(seed_db, opts));
  }

  Rng rng(47);
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 14;
  ccfg.max_extent = 0.08;
  ccfg.uncertain_existence_fraction = 0.2;
  service::TraceConfig tcfg;
  tcfg.num_requests = 10;
  tcfg.query_extent = 0.08;
  tcfg.budget.max_iterations = 3;

  for (int round = 0; round < 4; ++round) {
    const std::vector<Mutation> batch =
        workload::MakeMutationBatch(stores[0]->LiveIds(), 2, ccfg, rng);
    std::vector<std::shared_ptr<const StoreSnapshot>> snaps;
    for (auto& store : stores) {
      ASSERT_TRUE(workload::ApplyMutationBatch(*store, batch).ok());
      snaps.push_back(store->Publish());
    }
    tcfg.seed = 300 + static_cast<uint64_t>(round);
    const std::vector<service::QueryRequest> trace =
        service::MakeTrace(*snaps[0]->db(), tcfg);
    const uint64_t reference = PinnedDigest(snaps[0], trace);
    const Rect probe = Rect::FromPoint(Point{0.5, 0.5});
    ScanList reference_scan = ScanEveryShard(*snaps[0], probe);
    std::sort(reference_scan.begin(), reference_scan.end());
    for (size_t i = 1; i < snaps.size(); ++i) {
      ASSERT_EQ(snaps[i]->size(), snaps[0]->size());
      ASSERT_EQ(snaps[i]->num_shards(), kShardCounts[i]);
      EXPECT_TRUE(snaps[i]->index().Validate());
      // Same dense space: identical stable↔dense translation.
      for (ObjectId d = 0; d < snaps[0]->size(); ++d) {
        ASSERT_EQ(snaps[i]->StableId(d), snaps[0]->StableId(d));
      }
      // Same (distance, dense id) set over the per-shard scans.
      ScanList scan = ScanEveryShard(*snaps[i], probe);
      std::sort(scan.begin(), scan.end());
      ASSERT_EQ(scan, reference_scan);
      // Bit-identical served payloads.
      EXPECT_EQ(PinnedDigest(snaps[i], trace), reference)
          << "round=" << round << " shards=" << kShardCounts[i];
    }
  }
}

TEST(VersionedObjectStoreTest, ShardRoutingAndCounts) {
  StoreOptions opts;
  opts.num_shards = 3;
  VersionedObjectStore s(MakeDb(10, 0.05), opts);
  ASSERT_TRUE(s.Remove(4).ok());  // shard 1
  const auto snap = s.Publish();
  ASSERT_EQ(snap->num_shards(), 3u);
  // Stable ids 0..9 minus 4: shard 0 holds {0,3,6,9}, shard 1 {1,7},
  // shard 2 {2,5,8}.
  EXPECT_EQ(snap->shard_size(0), 4u);
  EXPECT_EQ(snap->shard_size(1), 2u);
  EXPECT_EQ(snap->shard_size(2), 3u);
  const std::vector<size_t> counts = s.ShardLiveCounts();
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 4u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 3u);
  // Each shard's scan emits exactly the objects routed to it; together
  // the ascending shard streams cover every live dense id once.
  const Rect probe = Rect::FromPoint(Point{0.5, 0.5});
  for (size_t s = 0; s < 3; ++s) {
    for (const auto& [d, id] : ShardScan(snap->index(), s, probe)) {
      EXPECT_EQ(snap->StableId(id) % 3, s) << "dense id " << id;
    }
  }
  EXPECT_EQ(ScanEveryShard(*snap, probe).size(), snap->size());
}

/// A scan stopped after j entries emits exactly the first j entries of
/// the full scan and calls `fn` no further, for every j — including stops
/// inside the overlay entries emitted ahead of the base (distance 0 at
/// the probe, tied with a base entry) and inside the overlay tail beyond
/// every base entry.
TEST(VersionedObjectStoreTest, OverlayScanStopsAtEveryPoint) {
  // The seed publish bulk-builds every shard's base: each shard of up to
  // eight holds more than 10 objects. Later publishes never compact.
  StoreOptions opts = TestOptions();
  opts.compact_delta_fraction = 10.0;
  UncertainDatabase seed_db = MakeDb(120, 0.05);
  seed_db.Add(MakePdf(0.5, 0.5, 0.05));  // stable id 120, at the probe
  VersionedObjectStore s(seed_db, opts);
  constexpr ObjectId kUpdated = 6;  // stable ids 0..5 move to the overlay
  for (ObjectId id = 0; id < kUpdated; ++id) {
    const double x = 0.1 * static_cast<double>(id);
    ASSERT_TRUE(s.Update(id, MakePdf(x, 0.9, 0.03, /*seed=*/id)).ok());
  }
  ASSERT_TRUE(s.Remove(7).ok());
  // Eight consecutive stable ids of each kind reach every shard of a
  // store with up to eight.
  constexpr ObjectId kFirstInsert = 121;
  for (int i = 0; i < 8; ++i) {
    const double at = 0.5 + 0.001 * i;  // contains the probe: distance 0
    ASSERT_TRUE(s.Insert(MakePdf(at, at, 0.05, /*seed=*/40 + i)).ok());
  }
  for (int i = 0; i < 8; ++i) {
    const double far = 5.0 + i;  // beyond every base entry
    const Rect box = Rect::Centered(Point{far, far}, {0.02, 0.02});
    ASSERT_TRUE(s.Insert(std::make_shared<UniformPdf>(box)).ok());
  }
  const auto snap = s.Publish();
  const Rect probe = Rect::FromPoint(Point{0.5, 0.5});
  const auto is_insert = [&snap](ObjectId dense) {
    return snap->StableId(dense) >= kFirstInsert;
  };
  const auto in_overlay = [&snap, &is_insert](ObjectId dense) {
    return is_insert(dense) || snap->StableId(dense) < kUpdated;
  };

  for (size_t sh = 0; sh < snap->num_shards(); ++sh) {
    ASSERT_GT(snap->index().shard(sh).delta_entries(), 0u) << "shard=" << sh;
    const ScanList full = ShardScan(snap->index(), sh, probe);
    ASSERT_EQ(full.size(), snap->shard_size(sh));
    // The overlay leads the stream and ends it.
    ASSERT_GE(full.size(), 2u);
    EXPECT_EQ(full.front().first, 0.0);
    EXPECT_TRUE(is_insert(full.front().second)) << "shard=" << sh;
    EXPECT_TRUE(is_insert(full.back().second)) << "shard=" << sh;
    EXPECT_GT(full.back().first, 4.0);
    // At equal distance no overlay entry follows a base entry.
    for (size_t i = 1; i < full.size(); ++i) {
      if (full[i - 1].first != full[i].first) continue;
      const bool prev_in_base = !in_overlay(full[i - 1].second);
      EXPECT_FALSE(prev_in_base && in_overlay(full[i].second))
          << "shard=" << sh << " i=" << i;
    }
    for (size_t j = 0; j <= full.size(); ++j) {
      size_t calls = 0;
      const ScanList got = ShardScan(snap->index(), sh, probe, j, &calls);
      EXPECT_EQ(got, ScanList(full.begin(), full.begin() + j))
          << "shard=" << sh << " j=" << j;
      // No call after the one that returned false.
      EXPECT_EQ(calls, std::min(j + 1, full.size())) << "j=" << j;
    }
  }
}

TEST(VersionedObjectStoreTest, PublishStatsSplitDrainFromBuild) {
  StoreOptions opts = TestOptions();
  VersionedObjectStore s(MakeDb(30, 0.05), opts);
  Rng rng(5);
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 12;
  ccfg.max_extent = 0.05;
  workload::ApplyMutationBatch(
      s, workload::MakeMutationBatch(s.LiveIds(), 2, ccfg, rng));
  PublishStats stats;
  s.Publish(&stats);
  EXPECT_EQ(stats.drained_mutations, 12u);
  EXPECT_GE(stats.drain_ms, 0.0);
  EXPECT_GE(stats.build_ms, 0.0);
  const PublishMetrics metrics = s.publish_metrics();
  EXPECT_EQ(metrics.publishes, 2u);  // seed publish + this one
  EXPECT_GE(metrics.max_drain_ms, stats.drain_ms);
  EXPECT_GE(metrics.max_build_ms, stats.build_ms);
  EXPECT_GE(metrics.total_drain_ms, stats.drain_ms);
}

/// TSan surface: readers iterate snapshots — including the latest,
/// re-acquired mid-publish — while a writer mutates and publishes through
/// the copy-on-write drain/merge/install cycle. Every acquired snapshot
/// must stay internally consistent (its shard scans cover its database
/// exactly once) no matter where publishing is in its cycle.
TEST(VersionedObjectStoreTest, CowPublishOverlapsConcurrentReaders) {
  StoreOptions opts = TestOptions();
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(60, 0.05), opts);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(23);
    workload::ChurnConfig ccfg;
    ccfg.mutations_per_batch = 10;
    ccfg.max_extent = 0.05;
    while (!stop.load()) {
      workload::ApplyMutationBatch(
          *store,
          workload::MakeMutationBatch(store->LiveIds(), 2, ccfg, rng));
      store->Publish();
    }
  });

  constexpr size_t kReaders = 3;
  std::vector<std::thread> readers;
  std::atomic<size_t> snapshots_checked{0};
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const Rect probe =
          Rect::FromPoint(Point{0.3 * static_cast<double>(t), 0.5});
      for (int i = 0; i < 40; ++i) {
        const auto snap = store->latest();
        ASSERT_EQ(ScanEveryShard(*snap, probe).size(), snap->size());
        ASSERT_EQ(snap->db()->size(), snap->size());
        // Writer-side live views stay readable mid-publish too.
        store->LiveIds();
        store->live_size();
        ++snapshots_checked;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(snapshots_checked.load(), kReaders * 40);
  EXPECT_GT(store->version(), 1u);
}

/// TSan surface of the durable path: WAL appends, made under the writer
/// mutex, race Publish()'s fsync of the same segments, made outside it.
/// Recovering the directory afterwards must rebuild exactly the state the
/// store last published.
TEST(VersionedObjectStoreTest, DurableAppendsRacePublishFsync) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/updb_store_durable_race";
  std::filesystem::remove_all(dir);
  StoreOptions opts = TestOptions();
  opts.durability.wal_dir = dir;
  opts.durability.fsync = FsyncPolicy::kEveryPublish;
  opts.durability.checkpoint_every = 4;
  StatusOr<std::unique_ptr<VersionedObjectStore>> opened =
      VersionedObjectStore::Open(MakeDb(30, 0.05), opts);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  VersionedObjectStore& store = **opened;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(29);
    workload::ChurnConfig ccfg;
    ccfg.mutations_per_batch = 6;
    ccfg.max_extent = 0.05;
    for (int batch = 0; batch < 40; ++batch) {
      const std::vector<Mutation> mutations =
          workload::MakeMutationBatch(store.LiveIds(), 2, ccfg, rng);
      EXPECT_TRUE(workload::ApplyMutationBatch(store, mutations).ok());
    }
    done.store(true);
  });
  size_t publishes = 0;
  while (!done.load()) {
    store.Publish();
    ++publishes;
  }
  writer.join();
  const auto published = store.Publish();
  ASSERT_TRUE(store.wal_status().ok()) << store.wal_status().ToString();
  EXPECT_GT(publishes, 0u);

  RecoveryReport report;
  StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
      RecoverStore(dir, TestOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(report.data_loss) << report.ToJson();
  EXPECT_EQ((*recovered)->version(), published->version());
  EXPECT_EQ((*recovered)->pending_mutations(), 0u);
  EXPECT_EQ((*recovered)->LiveIds(), store.LiveIds());

  service::TraceConfig tcfg;
  tcfg.num_requests = 8;
  tcfg.budget.max_iterations = 3;
  tcfg.seed = 61;
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(*published->db(), tcfg);
  EXPECT_EQ(PinnedDigest((*recovered)->latest(), trace),
            PinnedDigest(published, trace));
}

TEST(VersionedObjectStoreTest, EmptyStoreComesUpAndServes) {
  auto store = std::make_shared<VersionedObjectStore>(TestOptions());
  service::QueryServiceOptions opts;
  opts.num_workers = 2;
  service::QueryService svc(store, opts);

  // Threshold query against the unpublished (empty, version-0) snapshot:
  // admitted, completes with an empty payload.
  service::QueryRequest req;
  req.kind = service::QueryKind::kThresholdKnn;
  req.query = MakePdf(0.5, 0.5, 0.05);
  req.k = 2;
  const StatusOr<uint64_t> ticket = svc.Submit(req);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  const service::QueryResponse empty_response = svc.Take(*ticket);
  EXPECT_EQ(empty_response.status, service::ResponseStatus::kOk);
  EXPECT_EQ(empty_response.snapshot_version, 0u);
  EXPECT_TRUE(empty_response.threshold.empty());

  // Inverse ranking cannot name a valid target on an empty database.
  service::QueryRequest inverse;
  inverse.kind = service::QueryKind::kInverseRanking;
  inverse.query = MakePdf(0.5, 0.5, 0.05);
  inverse.target = 0;
  EXPECT_EQ(svc.Submit(inverse).status().code(),
            StatusCode::kInvalidArgument);

  // First publish brings data online; the same request now does work.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Insert(MakePdf(0.1 * i, 0.5, 0.03, /*seed=*/50 + i)).ok());
  }
  store->Publish();
  const StatusOr<uint64_t> ticket2 = svc.Submit(req);
  ASSERT_TRUE(ticket2.ok());
  const service::QueryResponse live_response = svc.Take(*ticket2);
  EXPECT_EQ(live_response.snapshot_version, 1u);
  EXPECT_FALSE(live_response.threshold.empty());
}

TEST(VersionedObjectStoreTest, LiveServiceObservesPublishedVersions) {
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(20, 0.08), TestOptions());
  service::QueryServiceOptions opts;
  opts.start_paused = true;
  service::QueryService svc(store, opts);

  service::QueryRequest req;
  req.kind = service::QueryKind::kThresholdKnn;
  req.query = MakePdf(0.5, 0.5, 0.08);
  req.k = 2;
  req.budget.max_iterations = 2;
  const StatusOr<uint64_t> t = svc.Submit(req);
  ASSERT_TRUE(t.ok());

  // Publish two more versions while dispatch is paused; the round then
  // serves the latest.
  store->Insert(MakePdf(0.9, 0.9, 0.02)).status();
  store->Publish();
  store->Publish();
  EXPECT_EQ(store->version(), 3u);
  svc.Resume();
  const service::QueryResponse r = svc.Take(*t);
  EXPECT_EQ(r.snapshot_version, 3u);
  EXPECT_EQ(r.status, service::ResponseStatus::kOk);
}

TEST(VersionedObjectStoreTest, ExecutionRevalidatesAgainstRoundSnapshot) {
  // An inverse-ranking target valid at admission but outside the snapshot
  // the round serves terminates as kInvalid, not as a crash or a wrong
  // payload.
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(10, 0.05), TestOptions());
  service::QueryServiceOptions opts;
  opts.start_paused = true;
  service::QueryService svc(store, opts);

  service::QueryRequest req;
  req.kind = service::QueryKind::kInverseRanking;
  req.query = MakePdf(0.5, 0.5, 0.05);
  req.target = 9;  // valid against version 1
  const StatusOr<uint64_t> t = svc.Submit(req);
  ASSERT_TRUE(t.ok());

  for (ObjectId id = 5; id < 10; ++id) ASSERT_TRUE(store->Remove(id).ok());
  store->Publish();  // version 2: only 5 objects remain
  svc.Resume();
  const service::QueryResponse r = svc.Take(*t);
  EXPECT_EQ(r.snapshot_version, 2u);
  EXPECT_EQ(r.status, service::ResponseStatus::kInvalid);
  EXPECT_EQ(r.rank_bounds.num_ranks(), 0u);
  // Execution-time invalidation is observable: counted separately from
  // admission-time validation failures.
  const service::MetricsSnapshot m = svc.metrics().Snapshot();
  EXPECT_EQ(m.invalidated, 1u);
  EXPECT_EQ(m.invalid, 0u);
}

TEST(VersionedObjectStoreTest, InverseTargetTracksStableIdAcrossVersions) {
  // The request's target is a stable id: removing a *lower* id before the
  // round executes shifts every dense id, and the service must still rank
  // the object the client named — never whichever object inherited the
  // dense slot.
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(10, 0.08), TestOptions());
  service::QueryServiceOptions opts;
  opts.start_paused = true;
  service::QueryService svc(store, opts);

  const auto query = MakePdf(0.5, 0.5, 0.08);
  service::QueryRequest req;
  req.kind = service::QueryKind::kInverseRanking;
  req.query = query;
  req.target = 3;  // stable id
  req.budget.max_iterations = 3;
  const StatusOr<uint64_t> t = svc.Submit(req);
  ASSERT_TRUE(t.ok());

  ASSERT_TRUE(store->Remove(0).ok());
  const auto snap = store->Publish();  // stable 3 now lives at dense 2
  ASSERT_EQ(*snap->DenseId(3), 2u);
  svc.Resume();
  const service::QueryResponse r = svc.Take(*t);
  EXPECT_EQ(r.snapshot_version, 2u);
  ASSERT_EQ(r.status, service::ResponseStatus::kOk);

  IdcaConfig direct_cfg;
  direct_cfg.max_iterations = 3;
  const CountDistributionBounds expected =
      ProbabilisticInverseRanking(*snap->db(), 2, *query, direct_cfg);
  ASSERT_EQ(r.rank_bounds.num_ranks(), expected.num_ranks());
  for (size_t k = 0; k < expected.num_ranks(); ++k) {
    EXPECT_EQ(r.rank_bounds.lb(k), expected.lb(k));
    EXPECT_EQ(r.rank_bounds.ub(k), expected.ub(k));
  }
}

/// Acceptance: with writers mutating and publishing concurrently, two
/// replays of the same request list pinned to the same snapshot_version
/// produce bit-identical payloads. The TSan CI job drives this test.
TEST(VersionedObjectStoreTest, VersionPinnedDeterminismUnderChurn) {
  StoreOptions opts = TestOptions();
  opts.snapshot_retention = 64;
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(30, 0.08), opts);
  const auto pinned = store->latest();

  service::TraceConfig tcfg;
  tcfg.num_requests = 10;
  tcfg.seed = 77;
  tcfg.query_extent = 0.08;
  tcfg.budget.max_iterations = 2;
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(*pinned->db(), tcfg);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(13);
    workload::ChurnConfig ccfg;
    ccfg.mutations_per_batch = 8;
    ccfg.max_extent = 0.08;
    while (!stop.load()) {
      workload::ApplyMutationBatch(
          *store,
          workload::MakeMutationBatch(store->LiveIds(), 2, ccfg, rng));
      store->Publish();
    }
  });

  uint64_t digest_a = 0, digest_b = 0;
  std::thread replay_a(
      [&] { digest_a = PinnedDigest(pinned, trace, /*workers=*/2); });
  std::thread replay_b(
      [&] { digest_b = PinnedDigest(pinned, trace, /*workers=*/1); });
  replay_a.join();
  replay_b.join();
  stop.store(true);
  writer.join();

  EXPECT_EQ(digest_a, digest_b);
  EXPECT_GT(store->version(), 1u);  // the writer really was publishing
}

/// Concurrent writers + live readers, the store/churn TSan surface: all
/// submissions complete and every response names a version that was
/// published at some point.
TEST(VersionedObjectStoreTest, ConcurrentWritersAndLiveReaders) {
  auto store =
      std::make_shared<VersionedObjectStore>(MakeDb(20, 0.05), TestOptions());
  service::QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.batch_size = 2;
  service::QueryService svc(store, opts);

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(17);
    workload::ChurnConfig ccfg;
    ccfg.mutations_per_batch = 4;
    ccfg.max_extent = 0.05;
    while (!stop.load()) {
      workload::ApplyMutationBatch(
          *store,
          workload::MakeMutationBatch(store->LiveIds(), 2, ccfg, rng));
      store->Publish();
    }
  });

  constexpr size_t kThreads = 3;
  constexpr size_t kPerThread = 6;
  std::vector<std::vector<uint64_t>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        service::QueryRequest req;
        req.kind = service::QueryKind::kThresholdKnn;
        req.query = MakePdf(0.2 + 0.2 * static_cast<double>(t), 0.5, 0.05,
                            /*seed=*/t * 100 + i);
        req.k = 1;
        req.budget.max_iterations = 2;
        const StatusOr<uint64_t> ticket = svc.Submit(req);
        ASSERT_TRUE(ticket.ok());
        tickets[t].push_back(*ticket);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  svc.Flush();
  stop.store(true);
  writer.join();

  const uint64_t final_version = store->version();
  for (const auto& per_thread : tickets) {
    for (uint64_t ticket : per_thread) {
      const service::QueryResponse r = svc.Take(ticket);
      EXPECT_TRUE(r.status == service::ResponseStatus::kOk ||
                  r.status == service::ResponseStatus::kExpired);
      EXPECT_GE(r.snapshot_version, 1u);
      EXPECT_LE(r.snapshot_version, final_version);
    }
  }
}

TEST(ChurnWorkloadTest, MutationBatchesAreSeedDeterministic) {
  const std::vector<ObjectId> live = {0, 1, 2, 3, 4, 5, 6, 7};
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 16;
  ccfg.uncertain_existence_fraction = 0.3;
  Rng rng_a(99), rng_b(99);
  const std::vector<Mutation> a =
      workload::MakeMutationBatch(live, 2, ccfg, rng_a);
  const std::vector<Mutation> b =
      workload::MakeMutationBatch(live, 2, ccfg, rng_b);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].existence, b[i].existence);
    if (a[i].pdf != nullptr) {
      ASSERT_NE(b[i].pdf, nullptr);
      EXPECT_EQ(a[i].pdf->bounds(), b[i].pdf->bounds());
    } else {
      EXPECT_EQ(b[i].pdf, nullptr);
    }
  }
}

TEST(ChurnWorkloadTest, TargetsDrawnWithoutReplacement) {
  const std::vector<ObjectId> live = {3, 5, 9};
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 40;
  ccfg.insert_weight = 0.0;  // update/remove only: pool drains after 3
  Rng rng(1);
  const std::vector<Mutation> batch =
      workload::MakeMutationBatch(live, 2, ccfg, rng);
  EXPECT_EQ(batch.size(), 3u);
  std::vector<ObjectId> targets;
  for (const Mutation& m : batch) targets.push_back(m.id);
  std::sort(targets.begin(), targets.end());
  EXPECT_EQ(targets, live);
}

TEST(ChurnWorkloadTest, EmptyLiveSetFallsBackToInserts) {
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 5;
  ccfg.insert_weight = 0.1;
  ccfg.update_weight = 10.0;
  ccfg.remove_weight = 10.0;
  Rng rng(2);
  const std::vector<Mutation> batch =
      workload::MakeMutationBatch({}, 2, ccfg, rng);
  ASSERT_EQ(batch.size(), 5u);
  for (const Mutation& m : batch) {
    EXPECT_EQ(m.kind, Mutation::Kind::kInsert);
  }
}

TEST(ChurnWorkloadTest, ShardTargetedBatchesRouteToOneShard) {
  std::vector<ObjectId> live(20);
  for (ObjectId id = 0; id < 20; ++id) live[id] = id;
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = 30;
  ccfg.insert_weight = 0.0;  // update/remove only: every target observable
  ccfg.num_shards = 4;
  ccfg.target_shard = 2;
  Rng rng(8);
  const std::vector<Mutation> batch =
      workload::MakeMutationBatch(live, 2, ccfg, rng);
  // The pool is the 5 live ids of shard 2 (2, 6, 10, 14, 18), drawn
  // without replacement.
  EXPECT_EQ(batch.size(), 5u);
  for (const Mutation& m : batch) {
    EXPECT_EQ(m.id % 4, 2u);
  }
}

}  // namespace
}  // namespace store
}  // namespace updb
