// The replication chaos soak: a seeded FaultInjector drives dozens of
// randomized fault episodes — dropped / corrupted / truncated / reordered
// frames, slow-consumer stalls, and full replica kill+restart — against a
// live two-replica rig, and after EVERY episode the rig must reconverge to
// byte-identical replica state. Replicas keep durable ledgers across kills
// (the rejoin handshake serves deltas from the source's history ring), so
// the soak exercises the whole resilience surface end to end. This test is
// part of the ThreadSanitizer workload for src/replicate/.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "io/serialize.h"
#include "replicate/fault_injector.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "replicate/transport.h"
#include "serve/snapshot_manager.h"
#include "serve/swappable_store.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

using replicate::FaultInjector;
using replicate::FaultKindName;
using replicate::FaultyChannel;
using replicate::MakePipeTransport;
using replicate::ReplicaManager;
using replicate::ReplicationSource;
using replicate::TransportPair;

constexpr uint64_t kFeatures = 4000;
constexpr uint32_t kDim = 8;
constexpr size_t kBatch = 64;
constexpr uint64_t kWaitUs = 30000000;  // generous: CI under TSan is slow

StoreFactoryContext MakeContext(double cr) {
  StoreFactoryContext context;
  context.embedding.total_features = kFeatures;
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 42;
  context.layout = FieldLayout({1600, 1200, 800, 400});
  context.cafe.decay_interval = 10;
  context.ada.realloc_interval = 10;
  return context;
}

std::string SaveStateBytes(const EmbeddingStore& store) {
  io::Writer writer;
  const Status status = store.SaveState(&writer);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return writer.Release();
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  EXPECT_TRUE(io::EnsureDirectory(dir).ok());
  auto names = io::ListDirectory(dir);
  if (names.ok()) {
    for (const std::string& file : *names) {
      (void)io::RemoveFile(dir + "/" + file);
    }
  }
  return dir;
}

/// A live source + N durable replicas, each behind a FaultyChannel the
/// episodes poke at runtime. Replica kills reuse the node's durable dir, so
/// every restart is a real ledger rejoin.
class ChaosRig {
 public:
  explicit ChaosRig(size_t replica_count)
      : context_(MakeContext(20.0)),
        rng_(777),
        zipf_(kFeatures, 1.2) {
    auto live = MakeStore("cafe", context_);
    EXPECT_TRUE(live.ok()) << live.status().ToString();
    live_ = std::move(live).value();
    ReplicationSource::Options source_options;
    // Tight watermarks so a stall episode can also trip a real overflow ->
    // stale -> rebase; a generous ring so kill episodes rejoin on deltas.
    source_options.send_queue_high_bytes = 1ull << 20;
    source_options.send_queue_high_frames = 8;
    source_options.delta_history_generations = 8;
    source_ = std::make_unique<ReplicationSource>(Factory(), source_options);
    SnapshotManager::Options options;
    options.incremental = true;
    options.payload_observer = source_->MakeObserver();
    manager_ = std::make_unique<SnapshotManager>(live_.get(), nullptr,
                                                 Factory(), options);
    nodes_.resize(replica_count);
    for (size_t i = 0; i < replica_count; ++i) {
      nodes_[i].dir = FreshDir("cafe_chaos_node" + std::to_string(i));
      StartNode(i);
    }
  }

  SnapshotManager::FreshStoreFactory Factory() const {
    const StoreFactoryContext context = context_;
    return [context]() { return MakeStore("cafe", context); };
  }

  /// (Re)dials node `i`: fresh pipe, fresh FaultyChannel on the source end,
  /// fresh ReplicaManager over the node's durable dir (a restart restores
  /// the ledger and rejoins with hello(restored generation)).
  void StartNode(size_t i) {
    TransportPair pair = MakePipeTransport();
    auto faulty = std::make_unique<FaultyChannel>(std::move(pair.source));
    nodes_[i].faulty = faulty.get();
    const Status added = source_->AddReplica(std::move(faulty));
    ASSERT_TRUE(added.ok()) << added.ToString();
    ReplicaManager::Options options;
    options.name = "chaos" + std::to_string(i);
    options.durable_dir = nodes_[i].dir;
    options.durable_compact_after_deltas = 6;  // exercise ledger compaction
    nodes_[i].manager = std::make_unique<ReplicaManager>(
        Factory(), std::move(pair.replica), options);
    const Status started = nodes_[i].manager->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
  }

  void KillNode(size_t i) {
    nodes_[i].manager->Shutdown();
    nodes_[i].manager.reset();
    nodes_[i].faulty = nullptr;  // the dead link owns the old channel
  }

  /// Trains two batches on the live store and cuts one generation.
  void TrainAndCut() {
    std::vector<uint64_t> ids(kBatch);
    std::vector<float> grads(kBatch * kDim);
    for (int k = 0; k < 2; ++k) {
      for (auto& id : ids) id = zipf_.SampleIndex(rng_);
      for (auto& g : grads) g = rng_.UniformFloat(-0.5f, 0.5f);
      live_->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      live_->Tick();
    }
    auto snapshot = manager_->Cut();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    last_generation_ = (*snapshot)->generation;
  }

  /// Every live node must reach the head and hold byte-identical state. A
  /// fault that ate the TAIL frame leaves no gap signal for the replica, so
  /// the wait is a nudge loop: each round that times out cuts one more
  /// generation — the successor delta exposes the gap, the replica resyncs,
  /// and the next round's base carries it to the (new) head.
  void ConvergeAll() {
    for (int attempt = 0; attempt < 20; ++attempt) {
      bool all_caught_up = true;
      for (Node& node : nodes_) {
        if (node.manager == nullptr) continue;
        if (!node.manager->WaitForGeneration(last_generation_, 1000000).ok()) {
          all_caught_up = false;
        }
      }
      if (all_caught_up) break;
      TrainAndCut();
      if (::testing::Test::HasFatalFailure()) return;
    }
    for (size_t i = 0; i < nodes_.size(); ++i) {
      ASSERT_NE(nodes_[i].manager, nullptr) << "node " << i << " not live";
      const Status caught_up =
          nodes_[i].manager->WaitForGeneration(last_generation_, kWaitUs);
      ASSERT_TRUE(caught_up.ok()) << "node " << i << " never converged to "
                                  << last_generation_ << ": "
                                  << caught_up.ToString();
      auto snapshot = nodes_[i].manager->swappable()->Acquire();
      ASSERT_NE(snapshot, nullptr) << "node " << i;
      EXPECT_EQ(snapshot->generation, last_generation_) << "node " << i;
      EXPECT_EQ(SaveStateBytes(*snapshot->store->underlying()),
                SaveStateBytes(*live_))
          << "node " << i << " diverged from the source";
    }
  }

  struct Node {
    std::string dir;
    FaultyChannel* faulty = nullptr;  // owned by the source's link
    std::unique_ptr<ReplicaManager> manager;
  };

  Node& node(size_t i) { return nodes_[i]; }
  ReplicationSource* source() { return source_.get(); }
  uint64_t last_generation() const { return last_generation_; }

 private:
  StoreFactoryContext context_;
  Rng rng_;
  ZipfDistribution zipf_;
  std::unique_ptr<EmbeddingStore> live_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<SnapshotManager> manager_;
  std::vector<Node> nodes_;
  uint64_t last_generation_ = 0;
};

FaultyChannel::Action ToAction(FaultInjector::Kind kind) {
  switch (kind) {
    case FaultInjector::Kind::kDrop:
      return FaultyChannel::Action::kDrop;
    case FaultInjector::Kind::kCorrupt:
      return FaultyChannel::Action::kCorrupt;
    case FaultInjector::Kind::kTruncate:
      return FaultyChannel::Action::kTruncate;
    case FaultInjector::Kind::kReorder:
      return FaultyChannel::Action::kReorder;
    default:
      ADD_FAILURE() << "not a transport fault";
      return FaultyChannel::Action::kDrop;
  }
}

bool AllKindsCovered(const FaultInjector& injector) {
  const int kinds = static_cast<int>(FaultInjector::Kind::kKindCount);
  for (int k = 0; k < kinds; ++k) {
    if (injector.count(static_cast<FaultInjector::Kind>(k)) == 0) return false;
  }
  return true;
}

// The soak: >= 24 seeded episodes (and as many more as it takes to have
// seen every fault kind at least once), convergence asserted after each.
// One fault per episode + converge-before-the-next means the recovery path
// (the base answering a resync or a rejoin hello) is never itself faulted —
// each episode isolates one failure class.
TEST(ReplicationChaosTest, SeededSoakConvergesByteIdenticalAfterEveryEpisode) {
  constexpr size_t kReplicas = 2;
  constexpr int kMinEpisodes = 24;
  constexpr int kMaxEpisodes = 60;  // seeded draws must cover 6 kinds by here

  ChaosRig rig(kReplicas);
  rig.TrainAndCut();  // generation 1: both nodes sync on a base
  ASSERT_NO_FATAL_FAILURE(rig.ConvergeAll());

  FaultInjector injector(0xCAFE5EEDull, kReplicas);
  int episode = 0;
  while (episode < kMinEpisodes || !AllKindsCovered(injector)) {
    ASSERT_LT(episode, kMaxEpisodes)
        << "seeded injector never produced every fault kind";
    const FaultInjector::Episode e = injector.Next();
    SCOPED_TRACE("episode " + std::to_string(episode) + ": " +
                 FaultKindName(e.kind) + " on node " +
                 std::to_string(e.target));
    ChaosRig::Node& node = rig.node(e.target);

    switch (e.kind) {
      case FaultInjector::Kind::kDrop:
      case FaultInjector::Kind::kCorrupt:
      case FaultInjector::Kind::kTruncate:
      case FaultInjector::Kind::kReorder: {
        node.faulty->Arm(ToAction(e.kind), e.in_frames, e.arg);
        // Cut past the armed write: the fault fires on a frame that has at
        // least one successor, so a gap is always observable and a held
        // reorder frame is always flushed.
        for (uint64_t c = 0; c < e.in_frames + 2; ++c) rig.TrainAndCut();
        break;
      }
      case FaultInjector::Kind::kStall: {
        // Slow consumer: the link's sender blocks mid-write while cuts keep
        // coming; the bounded queue absorbs (or overflows to stale) and the
        // drain reconverges either way.
        node.faulty->SetStalled(true);
        for (uint64_t c = 0; c < e.arg; ++c) rig.TrainAndCut();
        node.faulty->SetStalled(false);
        rig.TrainAndCut();
        break;
      }
      case FaultInjector::Kind::kKill: {
        // Kill the replica entirely; the source keeps cutting; the restart
        // restores the durable ledger and rejoins via hello(G).
        rig.KillNode(e.target);
        for (uint64_t c = 0; c < e.arg; ++c) rig.TrainAndCut();
        rig.StartNode(e.target);
        rig.TrainAndCut();
        break;
      }
      case FaultInjector::Kind::kKindCount:
        FAIL() << "kKindCount is not an episode";
    }
    if (::testing::Test::HasFatalFailure()) return;

    ASSERT_NO_FATAL_FAILURE(rig.ConvergeAll());
    ++episode;
  }

  // Coverage: the loop condition guarantees every fault class ran.
  for (int k = 0; k < static_cast<int>(FaultInjector::Kind::kKindCount); ++k) {
    const auto kind = static_cast<FaultInjector::Kind>(k);
    EXPECT_GE(injector.count(kind), 1u) << FaultKindName(kind);
  }

  // The source survived the whole soak with a healthy head chain.
  const ReplicationSource::Stats stats = rig.source()->stats();
  EXPECT_TRUE(stats.head_status.ok()) << stats.head_status.ToString();
  EXPECT_EQ(stats.head_generation, rig.last_generation());
}

}  // namespace
}  // namespace cafe
