// The online-rollout test battery: snapshot-while-training consistency
// (a mid-training cut must be bit-identical to a quiesced freeze of the
// same logical state), hot-swap serving (N workers serve while M snapshots
// are cut and installed mid-traffic; every response must match exactly one
// snapshot generation — never a torn mix), admission-control fast-fail
// under a saturated queue, thread_local const-path dedup under concurrent
// serving load, and the end-to-end RunOnlinePipeline. These tests are also
// the ThreadSanitizer workload for the rollout subsystem.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "sketch/hot_sketch.h"
#include "data/synthetic.h"
#include "io/checkpoint.h"
#include "io/serialize.h"
#include "serve/frozen_store.h"
#include "serve/inference_server.h"
#include "serve/snapshot_checkpoint.h"
#include "serve/snapshot_manager.h"
#include "serve/swappable_store.h"
#include "train/model_factory.h"
#include "train/online_pipeline.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

constexpr uint64_t kFeatures = 5000;
constexpr uint32_t kDim = 8;
constexpr size_t kBatch = 64;

StoreFactoryContext MakeContext(double cr) {
  StoreFactoryContext context;
  context.embedding.total_features = kFeatures;
  context.embedding.dim = kDim;
  context.embedding.compression_ratio = cr;
  context.embedding.seed = 42;
  context.layout = FieldLayout({2000, 1500, 1000, 500});
  context.cafe.decay_interval = 10;
  context.ada.realloc_interval = 10;
  for (uint64_t id = 0; id < 400; ++id) {
    context.offline_hot_ids.push_back(id * 7 % kFeatures);
  }
  return context;
}

/// Deterministic training stream: batch k's ids and gradients depend only
/// on (seed, k), so two stores replaying the same prefix see identical
/// updates.
struct GradStream {
  explicit GradStream(uint64_t seed) : rng(seed), zipf(kFeatures, 1.2) {}

  void Next(std::vector<uint64_t>* ids, std::vector<float>* grads) {
    ids->resize(kBatch);
    grads->resize(kBatch * kDim);
    for (auto& id : *ids) id = zipf.SampleIndex(rng);
    for (auto& g : *grads) g = rng.UniformFloat(-0.5f, 0.5f);
  }

  Rng rng;
  ZipfDistribution zipf;
};

void ApplyStream(EmbeddingStore* store, uint64_t seed, size_t batches) {
  GradStream stream(seed);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  for (size_t k = 0; k < batches; ++k) {
    stream.Next(&ids, &grads);
    store->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
    store->Tick();
  }
}

void ExpectStoresBitIdentical(const EmbeddingStore& a, const EmbeddingStore& b,
                              const std::string& what) {
  std::vector<float> row_a(kDim), row_b(kDim);
  for (uint64_t id = 0; id < kFeatures; ++id) {
    a.LookupConst(id, row_a.data());
    b.LookupConst(id, row_b.data());
    ASSERT_EQ(std::memcmp(row_a.data(), row_b.data(), kDim * sizeof(float)), 0)
        << what << ": embedding of id " << id << " diverged";
  }
  EXPECT_EQ(a.MemoryBytes(), b.MemoryBytes()) << what;
}

struct StoreCase {
  const char* name;
  double cr;
};

const StoreCase kAllStores[] = {
    {"full", 1.0},  {"hash", 20.0},    {"qr", 10.0},    {"robe", 10.0},    {"ada", 2.0},
    {"mde", 2.0},   {"offline", 20.0}, {"cafe", 20.0},  {"cafe-ml", 20.0},
};

class SnapshotCutTest : public ::testing::TestWithParam<StoreCase> {};

// The tentpole consistency guarantee: a snapshot cut WHILE a trainer thread
// is applying gradients must equal, bit for bit, a quiesced freeze of a
// second store trained on exactly the captured-step prefix of the same
// stream. Also covers the tail cut after FinishTraining.
TEST_P(SnapshotCutTest, MidTrainingCutMatchesQuiescedFreeze) {
  const std::string name = GetParam().name;
  const StoreFactoryContext context = MakeContext(GetParam().cr);
  auto live = MakeStore(name, context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  constexpr size_t kSteps = 200;
  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 37;  // bias the cut mid-stream
  SnapshotManager manager(
      live->get(), /*live_model=*/nullptr,
      [&name, &context]() { return MakeStore(name, context); },
      manager_options);

  manager.BeginTraining();
  std::thread trainer([&]() {
    GradStream stream(/*seed=*/321);
    std::vector<uint64_t> ids;
    std::vector<float> grads;
    for (size_t k = 1; k <= kSteps; ++k) {
      // Hold the first step until the cutter's request is registered, so
      // the cut deterministically lands MID-stream (at the interval floor,
      // step 37) rather than racing the end of the pass.
      while (k == 1 && !manager.cut_pending()) {
        std::this_thread::yield();
      }
      stream.Next(&ids, &grads);
      (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      (*live)->Tick();
      manager.AtStepBoundary(k);
    }
    manager.FinishTraining(kSteps);
  });

  auto snapshot = manager.Cut();
  ASSERT_TRUE(snapshot.ok()) << name << ": " << snapshot.status().ToString();
  trainer.join();

  const uint64_t s = (*snapshot)->train_step;
  EXPECT_EQ(s, manager_options.min_steps_between_cuts) << name;
  EXPECT_EQ((*snapshot)->generation, 1u);
  EXPECT_TRUE((*snapshot)->dense_params.empty());

  // Quiesced reference: a fresh store trained on the first s batches of the
  // SAME stream, frozen the PR-2 way.
  auto reference = MakeStore(name, context);
  ASSERT_TRUE(reference.ok());
  ApplyStream(reference->get(), /*seed=*/321, s);
  auto reference_frozen = FrozenStore::Wrap(reference->get());
  ExpectStoresBitIdentical(*(*snapshot)->store, *reference_frozen,
                           name + " (cut at step " + std::to_string(s) + ")");

  // Tail cut: the trainer is idle again, so Cut() copies directly and must
  // capture the full 200-step state.
  auto tail = manager.Cut();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  EXPECT_EQ((*tail)->train_step, kSteps);
  EXPECT_EQ((*tail)->generation, 2u);
  auto live_frozen = FrozenStore::Wrap(live->get());
  ExpectStoresBitIdentical(*(*tail)->store, *live_frozen,
                           name + " (tail cut)");

  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, 2u);
  EXPECT_GT(stats.max_copy_us, 0.0);
  EXPECT_GT(stats.max_publish_us, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllStores, SnapshotCutTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

std::string SaveStateBytes(const EmbeddingStore& store) {
  io::Writer writer;
  const Status status = store.SaveState(&writer);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return writer.Release();
}

class IncrementalDeltaTest : public ::testing::TestWithParam<StoreCase> {};

// The store-level incremental contract: a base SaveState plus k SaveDeltas
// replayed in order onto a fresh store must reproduce the live store's
// state to the BYTE (identical SaveState payloads), across maintenance
// ticks (cafe decay/demotion, ada reallocation) and with deltas far
// smaller than the base once the write set is a fraction of the store.
TEST_P(IncrementalDeltaTest, BaseDeltasRestoreBitIdenticalToSaveState) {
  const std::string name = GetParam().name;
  const StoreFactoryContext context = MakeContext(GetParam().cr);
  auto live = MakeStore(name, context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  // Warm up pre-base so the base itself carries non-trivial state.
  GradStream stream(/*seed=*/555);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  auto train = [&](EmbeddingStore* store, size_t batches) {
    for (size_t k = 0; k < batches; ++k) {
      stream.Next(&ids, &grads);
      store->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      store->Tick();
    }
  };
  train(live->get(), 25);

  // Base cut + tracking on at the same quiescent point.
  const std::string base = SaveStateBytes(**live);
  ASSERT_TRUE((*live)->SupportsIncrementalSnapshots()) << name;
  ASSERT_TRUE((*live)->EnableDirtyTracking().ok()) << name;

  auto restored = MakeStore(name, context);
  ASSERT_TRUE(restored.ok());
  {
    io::Reader reader(base);
    ASSERT_TRUE((*restored)->LoadState(&reader).ok()) << name;
    EXPECT_EQ(reader.remaining(), 0u) << name;
  }

  // Four delta intervals, each crossing maintenance ticks (decay_interval
  // and realloc_interval are 10; every interval trains 15 batches).
  constexpr size_t kIntervals = 4;
  for (size_t j = 0; j < kIntervals; ++j) {
    train(live->get(), 15);
    io::Writer delta_writer;
    ASSERT_TRUE((*live)->SaveDelta(&delta_writer).ok()) << name;
    std::string delta = delta_writer.Release();
    io::Reader reader(std::move(delta));
    ASSERT_TRUE((*restored)->LoadDelta(&reader).ok())
        << name << ": delta " << j;
    EXPECT_EQ(reader.remaining(), 0u) << name << ": delta " << j;

    // After EVERY delta the restored store equals the live one bitwise.
    EXPECT_EQ(SaveStateBytes(**live), SaveStateBytes(**restored))
        << name << ": SaveState diverged after delta " << j;
  }
  ExpectStoresBitIdentical(**live, **restored, name + " (base + deltas)");

  // The O(dirty) size claim, on a deterministic narrow write set: one
  // interval touching only 64 ids (and, by construction, crossing NO
  // maintenance tick — iteration sits at 85 here, the next decay/realloc
  // fires at 90) must serialize far less than the full base. The wide Zipf
  // intervals above intentionally skip this check: at this 5000-feature
  // test scale they legitimately touch most of the store.
  {
    Rng narrow_rng(999);
    std::vector<uint64_t> narrow_ids(kBatch);
    std::vector<float> narrow_grads(kBatch * kDim);
    for (size_t k = 0; k < 4; ++k) {
      for (auto& id : narrow_ids) {
        id = narrow_rng.Uniform(64);
      }
      for (auto& g : narrow_grads) g = narrow_rng.UniformFloat(-0.5f, 0.5f);
      (*live)->ApplyGradientBatch(narrow_ids.data(), kBatch,
                                  narrow_grads.data(), 0.05f);
      (*live)->Tick();
    }
    io::Writer narrow_writer;
    ASSERT_TRUE((*live)->SaveDelta(&narrow_writer).ok()) << name;
    std::string narrow_delta = narrow_writer.Release();
    EXPECT_LT(narrow_delta.size(), base.size())
        << name << ": narrow-write-set delta should undercut the full base";
    io::Reader reader(std::move(narrow_delta));
    ASSERT_TRUE((*restored)->LoadDelta(&reader).ok()) << name;
    EXPECT_EQ(reader.remaining(), 0u) << name;
    EXPECT_EQ(SaveStateBytes(**live), SaveStateBytes(**restored))
        << name << ": SaveState diverged after the narrow delta";
  }

  // And the restored store keeps TRAINING identically: replay the same
  // continuation on both and compare again (deltas carried RNG state,
  // importance scores, migration machinery — not just table bytes).
  GradStream continue_live(/*seed=*/808);
  GradStream continue_restored(/*seed=*/808);
  for (size_t k = 0; k < 20; ++k) {
    continue_live.Next(&ids, &grads);
    (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
    (*live)->Tick();
    continue_restored.Next(&ids, &grads);
    (*restored)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
    (*restored)->Tick();
  }
  ExpectStoresBitIdentical(**live, **restored,
                           name + " (continued training after deltas)");

  // SaveDelta without tracking is a contract violation, not a silent no-op.
  EXPECT_FALSE((*restored)->SaveDelta(nullptr).ok()) << name;
  (*live)->DisableDirtyTracking();
}

INSTANTIATE_TEST_SUITE_P(AllStores, IncrementalDeltaTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Maintenance ticks used to ship CAFE's whole sketch slot array (and
// AdaEmbed's whole score array) in the next delta — an O(store) spike in an
// otherwise O(dirty) stream, which becomes replica lag once deltas go over
// a wire. Both stores now ship a decay-pass COUNT that the apply side
// replays deterministically, so a tick-crossing delta with a narrow write
// set must stay below the array bytes the old format serialized wholesale.
// Bit-exact parity across ticks is covered by IncrementalDeltaTest /
// ReentrantLoadDeltaTest; this test pins the SIZE. It runs at a larger
// feature count than the rest of the file so the full arrays dominate the
// per-delta floor (free-row lists, counters) and the bound discriminates.
TEST(TickDeltaCompressionTest, TickCrossingDeltaUndercutsFullArrayShip) {
  constexpr uint64_t kBigFeatures = 200000;
  StoreFactoryContext context;
  context.embedding.total_features = kBigFeatures;
  context.embedding.dim = kDim;
  context.embedding.seed = 42;
  context.layout = FieldLayout({80000, 60000, 40000, 20000});
  context.cafe.decay_interval = 10;
  context.ada.realloc_interval = 10;

  for (const StoreCase& c : {StoreCase{"cafe", 20.0}, StoreCase{"ada", 2.0}}) {
    context.embedding.compression_ratio = c.cr;
    auto live = MakeStore(c.name, context);
    ASSERT_TRUE(live.ok()) << live.status().ToString();

    Rng rng(4242);
    std::vector<uint64_t> ids(kBatch);
    std::vector<float> grads(kBatch * kDim);
    auto narrow_train = [&](size_t batches) {
      for (size_t k = 0; k < batches; ++k) {
        for (auto& id : ids) id = rng.Uniform(64);
        for (auto& g : grads) g = rng.UniformFloat(-0.5f, 0.5f);
        (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
        (*live)->Tick();
      }
    };

    narrow_train(5);  // land the base mid-interval
    const std::string base = SaveStateBytes(**live);
    ASSERT_TRUE((*live)->EnableDirtyTracking().ok()) << c.name;
    auto restored = MakeStore(c.name, context);
    ASSERT_TRUE(restored.ok());
    {
      io::Reader reader(&base);
      ASSERT_TRUE((*restored)->LoadState(&reader).ok()) << c.name;
    }

    narrow_train(10);  // crosses the decay/realloc tick at iteration 10
    io::Writer delta_writer;
    ASSERT_TRUE((*live)->SaveDelta(&delta_writer).ok()) << c.name;
    std::string delta = delta_writer.Release();

    // The bytes the old format serialized wholesale at every tick: the
    // sketch slot array (capacity read back from the base header) for
    // cafe, the per-feature score array for ada.
    size_t full_array_bytes = 0;
    if (std::string(c.name) == "cafe") {
      io::Reader header(&base);
      uint32_t d = 0;
      uint64_t hot = 0, rows_a = 0, rows_b = 0, sketch_capacity = 0;
      ASSERT_TRUE(header.ReadU32(&d).ok());
      ASSERT_TRUE(header.ReadU64(&hot).ok());
      ASSERT_TRUE(header.ReadU64(&rows_a).ok());
      ASSERT_TRUE(header.ReadU64(&rows_b).ok());
      ASSERT_TRUE(header.ReadU64(&sketch_capacity).ok());
      full_array_bytes = sketch_capacity * sizeof(HotSketch::Slot);
    } else {
      full_array_bytes = kBigFeatures * sizeof(float);
    }
    EXPECT_LT(delta.size(), full_array_bytes)
        << c.name << ": tick-crossing delta should undercut the full "
        << "sketch/score array the pre-replay format shipped";

    // And the compressed tick delta still lands bit-exactly.
    io::Reader reader(std::move(delta));
    ASSERT_TRUE((*restored)->LoadDelta(&reader).ok()) << c.name;
    EXPECT_EQ(reader.remaining(), 0u) << c.name;
    EXPECT_EQ(SaveStateBytes(**live), SaveStateBytes(**restored))
        << c.name << ": SaveState diverged across the compressed tick delta";
    (*live)->DisableDirtyTracking();
  }
}

class IncrementalCutTest : public ::testing::TestWithParam<StoreCase> {};

// The manager-level guarantee, now at delta cost: with Options::incremental
// a mid-training cut (trainer thread live, dirty sets filling concurrently
// with the rollout thread's requests — the TSan train-while-cut workload)
// must STILL be bit-identical to a quiesced freeze of the same step prefix,
// for every cut in the chain, and later cuts must copy only deltas.
TEST_P(IncrementalCutTest, MidTrainingIncrementalCutsMatchQuiescedFreezes) {
  const std::string name = GetParam().name;
  const StoreFactoryContext context = MakeContext(GetParam().cr);
  auto live = MakeStore(name, context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  constexpr size_t kSteps = 200;
  constexpr size_t kCuts = 3;
  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 31;
  manager_options.incremental = true;
  // This test RETAINS every generation (to compare them all at the end),
  // deliberately violating the two-generation retention contract: every
  // publish from generation 3 on must take the retire fallback. Shorten the
  // reclaim grace so the forced fallbacks don't stall the suite.
  manager_options.reclaim_wait_us = 2000;
  SnapshotManager manager(
      live->get(), /*live_model=*/nullptr,
      [&name, &context]() { return MakeStore(name, context); },
      manager_options);

  manager.BeginTraining();
  std::thread trainer([&]() {
    GradStream stream(/*seed=*/321);
    std::vector<uint64_t> ids;
    std::vector<float> grads;
    for (size_t k = 1; k <= kSteps; ++k) {
      while (k == 1 && !manager.cut_pending()) {
        std::this_thread::yield();
      }
      stream.Next(&ids, &grads);
      (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      (*live)->Tick();
      manager.AtStepBoundary(k);
    }
    manager.FinishTraining(kSteps);
  });

  std::vector<std::shared_ptr<const ServingSnapshot>> snapshots;
  for (size_t m = 0; m < kCuts; ++m) {
    auto snapshot = manager.Cut();
    ASSERT_TRUE(snapshot.ok()) << name << ": " << snapshot.status().ToString();
    snapshots.push_back(std::move(snapshot).value());
  }
  trainer.join();

  // Tail cut after FinishTraining: direct-copy mode, still a delta.
  auto tail = manager.Cut();
  ASSERT_TRUE(tail.ok()) << tail.status().ToString();
  snapshots.push_back(std::move(tail).value());
  EXPECT_EQ(snapshots.back()->train_step, kSteps);

  // Every generation equals a quiesced reference trained on its prefix —
  // not just lookup-identical but byte-identical SaveState, the invariant
  // the double-buffered publish must preserve through delta replay, buffer
  // rotation, and retire rebuilds alike.
  for (size_t m = 0; m < snapshots.size(); ++m) {
    const uint64_t s = snapshots[m]->train_step;
    EXPECT_EQ(snapshots[m]->generation, m + 1);
    auto reference = MakeStore(name, context);
    ASSERT_TRUE(reference.ok());
    ApplyStream(reference->get(), /*seed=*/321, s);
    auto reference_frozen = FrozenStore::Wrap(reference->get());
    ExpectStoresBitIdentical(
        *snapshots[m]->store, *reference_frozen,
        name + " (incremental cut " + std::to_string(m) + " at step " +
            std::to_string(s) + ")");
    EXPECT_EQ(SaveStateBytes(*reference->get()),
              SaveStateBytes(*snapshots[m]->store->underlying()))
        << name << ": generation " << m + 1
        << " is not byte-identical to a quiesced SaveState freeze";
  }

  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, kCuts + 1);
  EXPECT_EQ(stats.delta_cuts, kCuts) << name;  // all but the base
  EXPECT_GT(stats.last_copy_bytes, 0u);
  // Generations 1 and 2 publish into free buffers; 3 and 4 find their
  // buffer still held by the retained generation-minus-two snapshot and
  // must retire it (the held snapshots stay immutable, as verified above).
  EXPECT_EQ(stats.retired_buffers, 2u) << name;
  EXPECT_GT(stats.last_publish_us, 0.0) << name;
}

INSTANTIATE_TEST_SUITE_P(AllStores, IncrementalCutTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

class ReentrantLoadDeltaTest : public ::testing::TestWithParam<StoreCase> {};

// The double-buffer precondition: LoadState + k LoadDeltas must land
// byte-identically on an ALREADY-POPULATED store — one that trained through
// its own decay/maintenance ticks and holds unrelated sketch contents,
// victim queues, realloc'd score arrays and RNG state — exactly what a
// resident ping-pong buffer is between publishes. Every section has to be
// fully overwritten by the replay; nothing may leak through from the
// previous occupancy. Byte-compared to the live SaveState after EVERY
// delta, across maintenance ticks on both sides.
TEST_P(ReentrantLoadDeltaTest, BaseDeltasOntoPopulatedStoreStayByteIdentical) {
  const std::string name = GetParam().name;
  const StoreFactoryContext context = MakeContext(GetParam().cr);
  auto live = MakeStore(name, context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  GradStream stream(/*seed=*/4242);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  auto train = [&](EmbeddingStore* store, size_t batches) {
    for (size_t k = 0; k < batches; ++k) {
      stream.Next(&ids, &grads);
      store->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      store->Tick();
    }
  };
  train(live->get(), 25);
  const std::string base = SaveStateBytes(**live);
  ASSERT_TRUE((*live)->EnableDirtyTracking().ok()) << name;

  // The target is NOT fresh: it trained on a different stream, long enough
  // to cross its own maintenance ticks (decay/realloc intervals are 10).
  auto target = MakeStore(name, context);
  ASSERT_TRUE(target.ok());
  ApplyStream(target->get(), /*seed=*/9090, 35);

  {
    io::Reader reader(base);
    ASSERT_TRUE((*target)->LoadState(&reader).ok()) << name;
    EXPECT_EQ(reader.remaining(), 0u) << name;
  }
  EXPECT_EQ(base, SaveStateBytes(**target))
      << name << ": LoadState onto a populated store leaked old state";

  constexpr size_t kIntervals = 4;
  for (size_t j = 0; j < kIntervals; ++j) {
    train(live->get(), 15);  // crosses a maintenance tick every interval
    io::Writer delta_writer;
    ASSERT_TRUE((*live)->SaveDelta(&delta_writer).ok()) << name;
    const std::string delta = delta_writer.Release();
    io::Reader reader(&delta);  // borrowed, like the publish path
    ASSERT_TRUE((*target)->LoadDelta(&reader).ok()) << name << ": delta " << j;
    EXPECT_EQ(reader.remaining(), 0u) << name << ": delta " << j;
    EXPECT_EQ(SaveStateBytes(**live), SaveStateBytes(**target))
        << name << ": SaveState diverged after re-entrant delta " << j;
  }

  // The replayed store keeps TRAINING identically (RNG, importance scores,
  // migration machinery all came across, none survived from the previous
  // occupancy).
  GradStream continue_live(/*seed=*/808);
  GradStream continue_target(/*seed=*/808);
  for (size_t k = 0; k < 20; ++k) {
    continue_live.Next(&ids, &grads);
    (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
    (*live)->Tick();
    continue_target.Next(&ids, &grads);
    (*target)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
    (*target)->Tick();
  }
  ExpectStoresBitIdentical(**live, **target,
                           name + " (continued training after re-entrant "
                                  "replay)");
  (*live)->DisableDirtyTracking();
}

INSTANTIATE_TEST_SUITE_P(AllStores, ReentrantLoadDeltaTest,
                         ::testing::ValuesIn(kAllStores),
                         [](const ::testing::TestParamInfo<StoreCase>& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Regression: a manager whose publish chain was POISONED (store factory
// failure mid-rollout) must not bleed into a fresh manager on the same live
// store. Its destructor turns dirty tracking off with a full epoch reset
// (EnableDirtyTracking(false)), so training that happens between the two
// managers is not silently attributed to the new manager's first delta —
// the new manager rebases from its own full base and its cuts stay
// byte-identical to quiesced freezes.
TEST(SnapshotManagerTest, FreshManagerRebasesCleanlyAfterPoisonedChain) {
  const StoreFactoryContext context = MakeContext(20.0);
  auto live = MakeStore("cafe", context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();

  GradStream stream(/*seed=*/616);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  auto train = [&](size_t batches) {
    for (size_t k = 0; k < batches; ++k) {
      stream.Next(&ids, &grads);
      (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      (*live)->Tick();
    }
  };
  size_t total_batches = 0;
  train(30);
  total_batches += 30;

  {
    SnapshotManager::Options options;
    options.incremental = true;
    SnapshotManager poisoned(
        live->get(), /*live_model=*/nullptr,
        []() -> StatusOr<std::unique_ptr<EmbeddingStore>> {
          return Status::Internal("injected factory failure");
        },
        options);
    // The base copy succeeds and turns tracking ON, but the publish cannot
    // materialize a buffer: the chain is poisoned from generation 1.
    auto first = poisoned.Cut();
    ASSERT_FALSE(first.ok());
    // Sticky: the next cut (a delta copy) fails fast on the poisoned chain.
    auto second = poisoned.Cut();
    ASSERT_FALSE(second.ok());
    // Destruction disables tracking with a full reset.
  }

  // Training BETWEEN managers: with stale tracking state this would either
  // leak into the new manager's first delta or be lost from it.
  train(10);
  total_batches += 10;

  SnapshotManager::Options options;
  options.incremental = true;
  SnapshotManager manager(
      live->get(), /*live_model=*/nullptr,
      [&context]() { return MakeStore("cafe", context); }, options);
  auto base_cut = manager.Cut();
  ASSERT_TRUE(base_cut.ok()) << base_cut.status().ToString();

  train(12);
  total_batches += 12;
  auto delta_cut = manager.Cut();
  ASSERT_TRUE(delta_cut.ok()) << delta_cut.status().ToString();

  auto reference = MakeStore("cafe", context);
  ASSERT_TRUE(reference.ok());
  ApplyStream(reference->get(), /*seed=*/616, total_batches);
  EXPECT_EQ(SaveStateBytes(*reference->get()),
            SaveStateBytes(*(*delta_cut)->store->underlying()))
      << "delta cut after the poisoned manager diverged from a quiesced "
         "freeze";
  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, 2u);
  EXPECT_EQ(stats.delta_cuts, 1u);
}

/// Optimizer whose SaveState succeeds `succeed_before` times, then fails
/// `failures` times, then succeeds again — injects a capture failure AFTER
/// the store side of the copy (base or delta) already ran.
class FlakyOptimizer : public Optimizer {
 public:
  FlakyOptimizer(int succeed_before, int failures)
      : succeed_before_(succeed_before), failures_left_(failures) {}
  std::string Name() const override { return "flaky"; }
  void Step(float lr) override { (void)lr; }
  Status SaveState(io::Writer* writer) const override {
    if (succeed_before_ > 0) {
      --succeed_before_;
    } else if (failures_left_ > 0) {
      --failures_left_;
      return Status::Internal("injected optimizer capture failure");
    }
    return Optimizer::SaveState(writer);
  }

 private:
  mutable int succeed_before_;
  mutable int failures_left_;
};

/// Minimal model shell so a SnapshotManager can exercise capture_optimizer
/// against a store that is trained directly.
class FlakyOptimizerModel : public RecModel {
 public:
  FlakyOptimizerModel(int succeed_before, int failures)
      : optimizer_(succeed_before, failures) {}
  double TrainStep(const Batch& batch) override {
    (void)batch;
    return 0.0;
  }
  void Predict(const Batch& batch, std::vector<float>* logits) override {
    logits->assign(batch.batch_size, 0.0f);
  }
  std::string Name() const override { return "flaky-stub"; }
  EmbeddingStore* store() override { return nullptr; }
  size_t DenseParameters() const override { return 0; }
  void CollectDenseParams(std::vector<Param>* out) override { (void)out; }
  Optimizer* optimizer() override { return &optimizer_; }

 private:
  FlakyOptimizer optimizer_;
};

// Regression: when the OPTIMIZER capture fails after the store base was
// copied and dirty tracking switched on, the failed cut must roll the
// rebase back — the base payload is discarded with the error, so leaving
// tracking "based" would make the next cut publish a delta with no base
// under it (a silently corrupt generation). The retry must retake a full
// base and every later generation must still match a quiesced freeze.
TEST(SnapshotManagerTest, FailedOptimizerCaptureRollsBackTheBase) {
  const StoreFactoryContext context = MakeContext(20.0);
  auto live = MakeStore("cafe", context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  FlakyOptimizerModel model(/*succeed_before=*/0, /*failures=*/1);

  GradStream stream(/*seed=*/717);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  auto train = [&](size_t batches) {
    for (size_t k = 0; k < batches; ++k) {
      stream.Next(&ids, &grads);
      (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      (*live)->Tick();
    }
  };
  size_t total_batches = 0;
  train(25);
  total_batches += 25;

  SnapshotManager::Options options;
  options.incremental = true;
  options.capture_optimizer = true;
  SnapshotManager manager(
      live->get(), &model,
      [&context]() { return MakeStore("cafe", context); }, options);

  // First cut: store base + EnableDirtyTracking succeed, optimizer capture
  // fails — the whole cut errors and the rebase is rolled back.
  auto failed = manager.Cut();
  ASSERT_FALSE(failed.ok());

  train(10);
  total_batches += 10;

  // Retry: must be a fresh FULL base (not a delta over a discarded base).
  auto base_cut = manager.Cut();
  ASSERT_TRUE(base_cut.ok()) << base_cut.status().ToString();
  EXPECT_TRUE((*base_cut)->has_optimizer);

  train(12);
  total_batches += 12;
  auto delta_cut = manager.Cut();
  ASSERT_TRUE(delta_cut.ok()) << delta_cut.status().ToString();

  auto reference = MakeStore("cafe", context);
  ASSERT_TRUE(reference.ok());
  ApplyStream(reference->get(), /*seed=*/717, total_batches);
  EXPECT_EQ(SaveStateBytes(*reference->get()),
            SaveStateBytes(*(*delta_cut)->store->underlying()))
      << "generation after a failed optimizer capture diverged from a "
         "quiesced freeze";
  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, 2u);
  EXPECT_EQ(stats.delta_cuts, 1u);  // the retry was a base, not a delta
}

// The harder variant: the optimizer capture fails on a DELTA cut, after
// SaveDelta already flushed the dirty sets. The discarded payload was the
// only record of that interval's rows, so the chain must rebase (next cut
// is a full base again) — without it, the next successful cut would emit a
// delta missing the failed interval's rows and publish a silently
// divergent generation.
TEST(SnapshotManagerTest, FailedOptimizerCaptureOnDeltaCutForcesRebase) {
  const StoreFactoryContext context = MakeContext(20.0);
  auto live = MakeStore("cafe", context);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  // Base capture succeeds, the capture on the first DELTA cut fails.
  FlakyOptimizerModel model(/*succeed_before=*/1, /*failures=*/1);

  GradStream stream(/*seed=*/727);
  std::vector<uint64_t> ids;
  std::vector<float> grads;
  auto train = [&](size_t batches) {
    for (size_t k = 0; k < batches; ++k) {
      stream.Next(&ids, &grads);
      (*live)->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      (*live)->Tick();
    }
  };
  size_t total_batches = 0;
  train(25);
  total_batches += 25;

  SnapshotManager::Options options;
  options.incremental = true;
  options.capture_optimizer = true;
  SnapshotManager manager(
      live->get(), &model,
      [&context]() { return MakeStore("cafe", context); }, options);

  auto base_cut = manager.Cut();
  ASSERT_TRUE(base_cut.ok()) << base_cut.status().ToString();

  train(10);
  total_batches += 10;
  // Delta copy runs (and flushes the dirty sets), then the optimizer
  // capture fails: the whole interval's dirty record is discarded.
  auto failed = manager.Cut();
  ASSERT_FALSE(failed.ok());

  train(12);
  total_batches += 12;
  auto rebased = manager.Cut();
  ASSERT_TRUE(rebased.ok()) << rebased.status().ToString();

  train(9);
  total_batches += 9;
  auto delta_cut = manager.Cut();
  ASSERT_TRUE(delta_cut.ok()) << delta_cut.status().ToString();

  auto reference = MakeStore("cafe", context);
  ASSERT_TRUE(reference.ok());
  ApplyStream(reference->get(), /*seed=*/727, total_batches);
  EXPECT_EQ(SaveStateBytes(*reference->get()),
            SaveStateBytes(*(*delta_cut)->store->underlying()))
      << "generation after a failed delta-cut capture diverged from a "
         "quiesced freeze";
  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, 3u);
  // base, rebased FULL base (not a delta over the lost interval), delta.
  EXPECT_EQ(stats.delta_cuts, 1u);
}

std::unique_ptr<SyntheticCtrDataset> MakeRolloutDataset() {
  SyntheticDatasetConfig config;
  config.name = "hot-swap-test";
  config.field_cardinalities = {2000, 1500, 1000, 500};
  config.num_numerical = 2;
  config.num_samples = 6000;
  config.num_days = 3;
  config.seed = 77;
  auto data = SyntheticCtrDataset::Generate(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

ModelConfig MakeRolloutModelConfig(const SyntheticCtrDataset& data) {
  ModelConfig config;
  config.num_fields = data.num_fields();
  config.emb_dim = kDim;
  config.num_numerical = data.config().num_numerical;
  config.seed = 1234;
  return config;
}

void ExpectDenseParamsMatchSnapshot(RecModel* model,
                                    const ServingSnapshot& snapshot,
                                    const std::string& what) {
  std::vector<Param> params;
  model->CollectDenseParams(&params);
  ASSERT_EQ(params.size(), snapshot.dense_params.size()) << what;
  for (size_t b = 0; b < params.size(); ++b) {
    ASSERT_EQ(params[b].size, snapshot.dense_params[b].size()) << what;
    EXPECT_EQ(std::memcmp(params[b].value, snapshot.dense_params[b].data(),
                          params[b].size * sizeof(float)),
              0)
        << what << ": dense block " << b << " diverged";
  }
}

void ExpectDenseParamsBitIdentical(RecModel* a, RecModel* b,
                                   const std::string& what) {
  std::vector<Param> params_a, params_b;
  a->CollectDenseParams(&params_a);
  b->CollectDenseParams(&params_b);
  ASSERT_EQ(params_a.size(), params_b.size()) << what;
  for (size_t i = 0; i < params_a.size(); ++i) {
    ASSERT_EQ(params_a[i].size, params_b[i].size) << what;
    EXPECT_EQ(std::memcmp(params_a[i].value, params_b[i].value,
                          params_a[i].size * sizeof(float)),
              0)
        << what << ": dense block " << i << " diverged";
  }
}

// With a live MODEL attached, the cut captures the dense weights at the
// same step boundary as the store state: both must equal a quiesced
// reference trained on the same step prefix.
TEST(SnapshotCutTest, DenseWeightsCutAtTheSameBoundaryAsTheStore) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  auto live_store = MakeStore("cafe", context);
  ASSERT_TRUE(live_store.ok());
  auto live_model = MakeModel("dlrm", model_config, live_store->get());
  ASSERT_TRUE(live_model.ok());

  constexpr size_t kSteps = 40;
  constexpr size_t kTrainBatch = 128;
  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 11;
  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&context]() { return MakeStore("cafe", context); }, manager_options);

  manager.BeginTraining();
  std::thread trainer([&]() {
    for (size_t k = 1; k <= kSteps; ++k) {
      while (k == 1 && !manager.cut_pending()) {
        std::this_thread::yield();
      }
      (*live_model)->TrainStep(data->GetBatch((k - 1) * kTrainBatch % 4000,
                                              kTrainBatch));
      manager.AtStepBoundary(k);
    }
    manager.FinishTraining(kSteps);
  });
  auto snapshot = manager.Cut();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  trainer.join();

  const uint64_t s = (*snapshot)->train_step;
  EXPECT_EQ(s, manager_options.min_steps_between_cuts);
  ASSERT_FALSE((*snapshot)->dense_params.empty());

  // Quiesced reference: identical seeds, identical batch prefix.
  auto ref_store = MakeStore("cafe", context);
  ASSERT_TRUE(ref_store.ok());
  auto ref_model = MakeModel("dlrm", model_config, ref_store->get());
  ASSERT_TRUE(ref_model.ok());
  for (size_t k = 1; k <= s; ++k) {
    (*ref_model)->TrainStep(data->GetBatch((k - 1) * kTrainBatch % 4000,
                                           kTrainBatch));
  }
  auto ref_frozen = FrozenStore::Wrap(ref_store->get());
  ExpectStoresBitIdentical(*(*snapshot)->store, *ref_frozen,
                           "cafe + dlrm cut at step " + std::to_string(s));
  ExpectDenseParamsMatchSnapshot(ref_model->get(), **snapshot,
                                 "cut at step " + std::to_string(s));
}

// The headline rollout guarantee: 4 workers serve a fixed probe while a
// trainer keeps learning and a rollout thread cuts + hot-swaps 5 fresh
// generations mid-traffic. Every single response must be bit-identical to
// the offline prediction of exactly ONE generation — a torn read (store
// from one generation, dense weights from another, or a mid-batch flip)
// would match none.
TEST(HotSwapServingTest, EveryResponseMatchesExactlyOneGeneration) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(1.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  auto live_store = MakeStore("full", context);
  ASSERT_TRUE(live_store.ok());
  auto live_model = MakeModel("wdl", model_config, live_store->get());
  ASSERT_TRUE(live_model.ok());

  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 5;
  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&context]() { return MakeStore("full", context); }, manager_options);

  std::vector<std::shared_ptr<const ServingSnapshot>> generations;
  auto initial = manager.Cut();
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  generations.push_back(*initial);
  SwappableStore swap(*initial);

  InferenceServerOptions options;
  options.num_workers = 4;
  options.max_batch = 48;
  options.max_wait_us = 100;
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options,
      [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        return MakeModel("wdl", model_config, &swap);
      },
      &swap);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Fixed probe: every request predicts the same 16 test-day samples, so a
  // response is fully determined by the generation that served it.
  const size_t test_begin = data->train_size();
  const Batch probe = data->GetBatch(test_begin, 16);

  constexpr size_t kSwaps = 5;
  constexpr size_t kClients = 3;
  constexpr size_t kTrainBatch = 128;
  std::atomic<bool> stop_training{false};
  std::atomic<bool> stop_clients{false};

  // Active BEFORE the rollout thread exists: its cuts must handshake with
  // step boundaries, never direct-copy under the live trainer.
  manager.BeginTraining();
  std::thread trainer([&]() {
    uint64_t step = 0;
    while (!stop_training.load(std::memory_order_acquire)) {
      (*live_model)->TrainStep(
          data->GetBatch((step * kTrainBatch) % 4000, kTrainBatch));
      ++step;
      manager.AtStepBoundary(step);
    }
    manager.FinishTraining(step);
  });

  std::string rollout_error;
  std::thread rollout([&]() {
    for (size_t m = 0; m < kSwaps; ++m) {
      auto snapshot = manager.Cut();
      if (!snapshot.ok()) {
        rollout_error = snapshot.status().ToString();
        break;
      }
      generations.push_back(*snapshot);
      (*server)->InstallSnapshot(*snapshot);
    }
    stop_training.store(true, std::memory_order_release);
  });

  std::vector<std::vector<std::vector<float>>> responses(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      std::vector<std::future<std::vector<float>>> inflight;
      while (!stop_clients.load(std::memory_order_acquire)) {
        auto submitted = (*server)->Submit(probe);
        if (!submitted.ok()) {
          errors[c] = submitted.status().ToString();
          return;
        }
        inflight.push_back(std::move(submitted).value());
        if (inflight.size() >= 8) {
          for (auto& f : inflight) responses[c].push_back(f.get());
          inflight.clear();
        }
      }
      for (auto& f : inflight) responses[c].push_back(f.get());
    });
  }

  rollout.join();
  trainer.join();
  stop_clients.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  ASSERT_EQ(rollout_error, "");
  for (const std::string& error : errors) ASSERT_EQ(error, "");

  // Offline reference per generation: a fresh replica over the snapshot's
  // frozen store with the snapshot's dense weights.
  ASSERT_EQ(generations.size(), kSwaps + 1);
  std::vector<std::vector<float>> reference(generations.size());
  for (size_t g = 0; g < generations.size(); ++g) {
    auto replica =
        MakeModel("wdl", model_config, generations[g]->store.get());
    ASSERT_TRUE(replica.ok());
    std::vector<Param> params;
    (*replica)->CollectDenseParams(&params);
    ASSERT_EQ(params.size(), generations[g]->dense_params.size());
    for (size_t b = 0; b < params.size(); ++b) {
      ASSERT_EQ(params[b].size, generations[g]->dense_params[b].size());
      std::memcpy(params[b].value, generations[g]->dense_params[b].data(),
                  params[b].size * sizeof(float));
    }
    (*replica)->Predict(probe, &reference[g]);
  }
  // Generations must be distinguishable, or "exactly one" is vacuous.
  for (size_t a = 0; a < reference.size(); ++a) {
    for (size_t b = a + 1; b < reference.size(); ++b) {
      ASSERT_NE(std::memcmp(reference[a].data(), reference[b].data(),
                            reference[a].size() * sizeof(float)),
                0)
          << "generations " << a + 1 << " and " << b + 1
          << " are indistinguishable; the tear check would be vacuous";
    }
  }

  size_t total_responses = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < responses[c].size(); ++r) {
      const std::vector<float>& got = responses[c][r];
      ASSERT_EQ(got.size(), reference[0].size());
      size_t matches = 0;
      for (const std::vector<float>& ref : reference) {
        if (std::memcmp(got.data(), ref.data(),
                        got.size() * sizeof(float)) == 0) {
          ++matches;
        }
      }
      ASSERT_EQ(matches, 1u)
          << "client " << c << " response " << r
          << (matches == 0 ? " matches NO generation (torn read)"
                           : " matches multiple generations");
      ++total_responses;
    }
  }
  EXPECT_GT(total_responses, 0u);

  const InferenceServer::Stats stats = (*server)->stats();
  EXPECT_EQ(stats.snapshot_swaps, kSwaps);
  EXPECT_EQ(stats.snapshot_generation, generations.back()->generation);
  EXPECT_EQ(stats.rejected, 0u);
  (*server)->Shutdown();
}

// The double-buffer serve-while-apply workload (and its TSan probe):
// workers serve pinned generations from one resident buffer WHILE the
// rollout thread replays deltas into the other and flips them. References
// are captured as logits at install time and the snapshots RELEASED — the
// healthy retention pattern, keeping publishes on the reclaim fast path.
// Every response must still match exactly one generation bit-for-bit.
TEST(HotSwapServingTest, IncrementalDoubleBufferRolloutServesTearFree) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(1.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  auto live_store = MakeStore("full", context);
  ASSERT_TRUE(live_store.ok());
  auto live_model = MakeModel("wdl", model_config, live_store->get());
  ASSERT_TRUE(live_model.ok());

  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 5;
  manager_options.incremental = true;
  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&context]() { return MakeStore("full", context); }, manager_options);

  const size_t test_begin = data->train_size();
  const Batch probe = data->GetBatch(test_begin, 16);

  // Reference logits per generation, computed while the generation is
  // current and before this thread's snapshot reference is released.
  std::vector<std::vector<float>> reference;
  auto record_reference =
      [&](const std::shared_ptr<const ServingSnapshot>& snapshot) {
        auto replica =
            MakeModel("wdl", model_config, snapshot->store.get());
        ASSERT_TRUE(replica.ok());
        std::vector<Param> params;
        (*replica)->CollectDenseParams(&params);
        ASSERT_EQ(params.size(), snapshot->dense_params.size());
        for (size_t b = 0; b < params.size(); ++b) {
          ASSERT_EQ(params[b].size, snapshot->dense_params[b].size());
          std::memcpy(params[b].value, snapshot->dense_params[b].data(),
                      params[b].size * sizeof(float));
        }
        reference.emplace_back();
        (*replica)->Predict(probe, &reference.back());
      };

  auto initial = manager.Cut();
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  record_reference(*initial);
  SwappableStore swap(std::move(initial).value());

  InferenceServerOptions options;
  options.num_workers = 4;
  options.max_batch = 48;
  options.max_wait_us = 100;
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options,
      [&](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        return MakeModel("wdl", model_config, &swap);
      },
      &swap);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr size_t kSwaps = 5;
  constexpr size_t kClients = 3;
  constexpr size_t kTrainBatch = 128;
  std::atomic<bool> stop_training{false};
  std::atomic<bool> stop_clients{false};

  manager.BeginTraining();
  std::thread trainer([&]() {
    uint64_t step = 0;
    while (!stop_training.load(std::memory_order_acquire)) {
      (*live_model)->TrainStep(
          data->GetBatch((step * kTrainBatch) % 4000, kTrainBatch));
      ++step;
      manager.AtStepBoundary(step);
    }
    manager.FinishTraining(step);
  });

  std::string rollout_error;
  std::thread rollout([&]() {
    for (size_t m = 0; m < kSwaps; ++m) {
      auto snapshot = manager.Cut();
      if (!snapshot.ok()) {
        rollout_error = snapshot.status().ToString();
        break;
      }
      {
        auto replica = MakeModel("wdl", model_config, (*snapshot)->store.get());
        if (!replica.ok()) {
          rollout_error = replica.status().ToString();
          break;
        }
        std::vector<Param> params;
        (*replica)->CollectDenseParams(&params);
        for (size_t b = 0; b < params.size(); ++b) {
          std::memcpy(params[b].value, (*snapshot)->dense_params[b].data(),
                      params[b].size * sizeof(float));
        }
        reference.emplace_back();
        (*replica)->Predict(probe, &reference.back());
      }
      // Install retires the outgoing generation; moving our reference in
      // releases this thread's hold — the buffer lease drains as soon as
      // the last pinned micro-batch on the PREVIOUS generation completes.
      (*server)->InstallSnapshot(std::move(snapshot).value());
    }
    stop_training.store(true, std::memory_order_release);
  });

  std::vector<std::vector<std::vector<float>>> responses(kClients);
  std::vector<std::string> errors(kClients);
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      std::vector<std::future<std::vector<float>>> inflight;
      while (!stop_clients.load(std::memory_order_acquire)) {
        auto submitted = (*server)->Submit(probe);
        if (!submitted.ok()) {
          errors[c] = submitted.status().ToString();
          return;
        }
        inflight.push_back(std::move(submitted).value());
        if (inflight.size() >= 8) {
          for (auto& f : inflight) responses[c].push_back(f.get());
          inflight.clear();
        }
      }
      for (auto& f : inflight) responses[c].push_back(f.get());
    });
  }

  rollout.join();
  trainer.join();
  stop_clients.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  ASSERT_EQ(rollout_error, "");
  for (const std::string& error : errors) ASSERT_EQ(error, "");

  ASSERT_EQ(reference.size(), kSwaps + 1);
  for (size_t a = 0; a < reference.size(); ++a) {
    for (size_t b = a + 1; b < reference.size(); ++b) {
      ASSERT_NE(std::memcmp(reference[a].data(), reference[b].data(),
                            reference[a].size() * sizeof(float)),
                0)
          << "generations " << a + 1 << " and " << b + 1
          << " are indistinguishable; the tear check would be vacuous";
    }
  }

  size_t total_responses = 0;
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t r = 0; r < responses[c].size(); ++r) {
      const std::vector<float>& got = responses[c][r];
      ASSERT_EQ(got.size(), reference[0].size());
      size_t matches = 0;
      for (const std::vector<float>& ref : reference) {
        if (std::memcmp(got.data(), ref.data(),
                        got.size() * sizeof(float)) == 0) {
          ++matches;
        }
      }
      ASSERT_EQ(matches, 1u)
          << "client " << c << " response " << r
          << (matches == 0 ? " matches NO generation (torn read)"
                           : " matches multiple generations");
      ++total_responses;
    }
  }
  EXPECT_GT(total_responses, 0u);

  const SnapshotManager::Stats stats = manager.stats();
  EXPECT_EQ(stats.cuts, kSwaps + 1);
  EXPECT_EQ(stats.delta_cuts, kSwaps);  // everything after the base
  EXPECT_GT(stats.last_publish_us, 0.0);
  const InferenceServer::Stats serve_stats = (*server)->stats();
  EXPECT_EQ(serve_stats.snapshot_swaps, kSwaps);
  (*server)->Shutdown();
}

// Snapshot-cut optimizer state: with capture_optimizer a mid-training
// snapshot written through WriteSnapshotCheckpoint is a FULL training-resume
// checkpoint — restoring it into a fresh store + model and replaying the
// remaining steps lands bit-identical to the uninterrupted run (dense
// weights, Adagrad accumulators, store state: the unified online/offline
// checkpoint path).
TEST(SnapshotCheckpointTest, CapturedOptimizerStateResumesBitIdentically) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  auto live_store = MakeStore("cafe", context);
  ASSERT_TRUE(live_store.ok());
  auto live_model = MakeModel("dlrm", model_config, live_store->get());
  ASSERT_TRUE(live_model.ok());

  constexpr size_t kSteps = 40;
  constexpr size_t kTrainBatch = 128;
  SnapshotManager::Options manager_options;
  manager_options.min_steps_between_cuts = 13;
  manager_options.incremental = true;
  manager_options.capture_optimizer = true;
  SnapshotManager manager(
      live_store->get(), live_model->get(),
      [&context]() { return MakeStore("cafe", context); }, manager_options);

  manager.BeginTraining();
  std::thread trainer([&]() {
    for (size_t k = 1; k <= kSteps; ++k) {
      while (k == 1 && !manager.cut_pending()) {
        std::this_thread::yield();
      }
      (*live_model)->TrainStep(data->GetBatch((k - 1) * kTrainBatch % 4000,
                                              kTrainBatch));
      manager.AtStepBoundary(k);
    }
    manager.FinishTraining(kSteps);
  });
  auto snapshot = manager.Cut();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  trainer.join();

  const uint64_t s = (*snapshot)->train_step;
  EXPECT_EQ(s, manager_options.min_steps_between_cuts);
  ASSERT_TRUE((*snapshot)->has_optimizer);
  ASSERT_FALSE((*snapshot)->optimizer_state.empty());
  EXPECT_EQ((*snapshot)->model_name, "dlrm");

  const std::string path = ::testing::TempDir() + "cafe_snapshot_resume.bin";
  ASSERT_TRUE(WriteSnapshotCheckpoint(**snapshot, path).ok());

  // Restore into a fresh stack and replay steps s+1..kSteps.
  auto resumed_store = MakeStore("cafe", context);
  ASSERT_TRUE(resumed_store.ok());
  auto resumed_model = MakeModel("dlrm", model_config, resumed_store->get());
  ASSERT_TRUE(resumed_model.ok());
  const Status load =
      io::LoadCheckpoint(path, resumed_store->get(), resumed_model->get());
  ASSERT_TRUE(load.ok()) << load.ToString();
  for (size_t k = s + 1; k <= kSteps; ++k) {
    (*resumed_model)->TrainStep(data->GetBatch((k - 1) * kTrainBatch % 4000,
                                               kTrainBatch));
  }

  // The live stack trained 1..kSteps uninterrupted; resume must match it
  // exactly — including the optimizer's adaptive step sizes, which a
  // weights-only snapshot would get wrong.
  ExpectStoresBitIdentical(**resumed_store, **live_store,
                           "snapshot-checkpoint resume (store)");
  EXPECT_EQ(SaveStateBytes(**resumed_store), SaveStateBytes(**live_store));
  ExpectDenseParamsBitIdentical(resumed_model->get(), live_model->get(),
                                "snapshot-checkpoint resume (dense)");
}

/// A model whose Predict blocks until released — makes queue saturation
/// deterministic (no timing assumptions) for the backpressure test.
class GateModel : public RecModel {
 public:
  double TrainStep(const Batch& batch) override {
    (void)batch;
    return 0.0;
  }
  void Predict(const Batch& batch, std::vector<float>* logits) override {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      cv_.notify_all();
      cv_.wait(lock, [this] { return open_; });
    }
    logits->assign(batch.batch_size, 0.0f);
  }
  std::string Name() const override { return "gate"; }
  EmbeddingStore* store() override { return nullptr; }
  size_t DenseParameters() const override { return 0; }
  void CollectDenseParams(std::vector<Param>* out) override { (void)out; }

  void WaitForEntry() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_ > 0; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int entered_ = 0;
  bool open_ = false;
};

// Admission control: once max_queue_samples are queued, Submit fast-fails
// with ResourceExhausted instead of growing the queue; queue depth stays
// bounded; admitted work still completes; an oversized request against an
// empty queue is admitted (requests are never split).
TEST(AdmissionControlTest, BackpressureFastFailsWhenTheQueueSaturates) {
  auto data = MakeRolloutDataset();

  GateModel* gate = nullptr;
  InferenceServerOptions options;
  options.num_workers = 1;
  options.max_batch = 4;  // the blocked worker claims exactly one request
  options.max_wait_us = 100;
  options.max_queue_samples = 32;
  options.num_fields = data->num_fields();
  options.num_numerical = data->config().num_numerical;
  auto server = InferenceServer::Start(
      options, [&gate](size_t) -> StatusOr<std::unique_ptr<RecModel>> {
        auto model = std::make_unique<GateModel>();
        gate = model.get();
        return StatusOr<std::unique_ptr<RecModel>>(std::move(model));
      });
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_NE(gate, nullptr);

  // First request: claimed by the worker, which then blocks inside Predict.
  auto first = (*server)->Submit(data->GetBatch(0, 4));
  ASSERT_TRUE(first.ok());
  gate->WaitForEntry();

  // Fill the queue to exactly the cap while the worker is stuck.
  std::vector<std::future<std::vector<float>>> admitted;
  for (int r = 0; r < 8; ++r) {
    auto submitted = (*server)->Submit(data->GetBatch(4 + r * 4, 4));
    ASSERT_TRUE(submitted.ok()) << "request " << r << " should fit the cap: "
                                << submitted.status().ToString();
    admitted.push_back(std::move(submitted).value());
  }
  EXPECT_EQ((*server)->stats().queue_depth, 32u);

  // Saturated: every further submission fast-fails, depth stays bounded.
  for (int r = 0; r < 5; ++r) {
    auto rejected = (*server)->Submit(data->GetBatch(100, 4));
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted)
        << rejected.status().ToString();
  }
  {
    const InferenceServer::Stats stats = (*server)->stats();
    EXPECT_EQ(stats.rejected, 5u);
    EXPECT_EQ(stats.queue_depth, 32u);
    EXPECT_LE(stats.peak_queue_depth, options.max_queue_samples);
  }

  // Release the worker: every ADMITTED request completes.
  gate->Open();
  EXPECT_EQ(std::move(first).value().get().size(), 4u);
  for (auto& future : admitted) {
    EXPECT_EQ(future.get().size(), 4u);
  }
  {
    const InferenceServer::Stats stats = (*server)->stats();
    EXPECT_EQ(stats.requests, 9u);
    EXPECT_EQ(stats.samples, 36u);
    EXPECT_EQ(stats.queue_depth, 0u);
  }

  // Never-split rule: a request larger than the whole cap is admitted when
  // the queue is empty (it could otherwise never be served).
  auto oversized = (*server)->Submit(data->GetBatch(0, 40));
  ASSERT_TRUE(oversized.ok());
  EXPECT_EQ(std::move(oversized).value().get().size(), 40u);
  (*server)->Shutdown();

  // A stopped server fast-fails too (no more CHECK-crash on Submit).
  auto after_stop = (*server)->Submit(data->GetBatch(0, 4));
  ASSERT_FALSE(after_stop.ok());
  EXPECT_EQ(after_stop.status().code(), StatusCode::kFailedPrecondition);
}

// The thread_local serving-path dedup (CAFE/MDE) must stay byte-identical
// to scalar const lookups under concurrent multi-threaded load — this is
// the TSan probe for the per-worker scratch.
TEST(ConstDedupTest, ConcurrentDedupLookupsMatchScalarConstPath) {
  for (const char* name : {"cafe", "cafe-ml", "mde"}) {
    const double cr = std::strcmp(name, "mde") == 0 ? 2.0 : 20.0;
    auto store = MakeStore(name, MakeContext(cr));
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ApplyStream(store->get(), /*seed=*/99, 40);
    const EmbeddingStore* frozen = store->get();

    constexpr size_t kThreads = 8;
    constexpr size_t kRounds = 10;
    constexpr size_t kProbe = 256;  // duplicate-heavy zipf batches
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        Rng rng(1000 + t);
        ZipfDistribution zipf(kFeatures, 1.2);
        std::vector<uint64_t> ids(kProbe);
        std::vector<float> batched(kProbe * kDim);
        std::vector<float> scalar(kProbe * kDim);
        for (size_t round = 0; round < kRounds; ++round) {
          for (auto& id : ids) id = zipf.SampleIndex(rng);
          frozen->LookupBatchConst(ids.data(), kProbe, batched.data(), kDim);
          for (size_t i = 0; i < kProbe; ++i) {
            frozen->LookupConst(ids[i], scalar.data() + i * kDim);
          }
          if (std::memcmp(batched.data(), scalar.data(),
                          batched.size() * sizeof(float)) != 0) {
            errors[t] = "thread " + std::to_string(t) + " round " +
                        std::to_string(round) + ": dedup'd const batch "
                        "diverged from scalar lookups";
            return;
          }
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (const std::string& error : errors) {
      EXPECT_EQ(error, "") << name;
    }
  }
}

// End to end: the online pipeline trains, hot-swaps generations under live
// traffic, and its FINAL generation must be bit-identical to an
// uninterrupted offline run of the same training stream.
TEST(OnlinePipelineTest, FinalGenerationMatchesUninterruptedTraining) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 1;
  options.snapshot_interval = 8;
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const size_t train_end = data->train_size();
  const uint64_t expected_steps = (train_end + 127) / 128;
  EXPECT_EQ(result->train_steps, expected_steps);
  EXPECT_GE(result->snapshots_installed, 2u);
  EXPECT_GT(result->requests_ok, 0u);
  EXPECT_EQ(result->requests_rejected, 0u);  // no admission cap configured
  EXPECT_EQ(result->server_stats.snapshot_generation,
            result->snapshots_installed);
  EXPECT_EQ(result->server_stats.snapshot_swaps,
            result->snapshots_installed - 1);
  EXPECT_GT(result->avg_train_loss, 0.0);
  EXPECT_GE(result->snapshot_stats.cuts, result->snapshots_installed);
  ASSERT_NE(result->final_snapshot, nullptr);
  EXPECT_EQ(result->final_snapshot->train_step, expected_steps);

  // Uninterrupted reference: same seeds, same chronological batch stream,
  // no serving, no snapshots.
  auto ref_store = MakeStore("cafe", context);
  ASSERT_TRUE(ref_store.ok());
  auto ref_model = MakeModel("dlrm", model_config, ref_store->get());
  ASSERT_TRUE(ref_model.ok());
  for (size_t start = 0; start < train_end; start += 128) {
    (*ref_model)->TrainStep(
        data->GetBatch(start, std::min<size_t>(128, train_end - start)));
  }
  auto ref_frozen = FrozenStore::Wrap(ref_store->get());
  ExpectStoresBitIdentical(*result->final_snapshot->store, *ref_frozen,
                           "online pipeline final generation");
  ExpectDenseParamsMatchSnapshot(ref_model->get(), *result->final_snapshot,
                                 "online pipeline final dense weights");
}

// Same end-to-end guarantee with incremental snapshot cuts: the final
// generation of a delta-cut rollout is bit-identical to uninterrupted
// offline training, and all post-base cuts were deltas.
TEST(OnlinePipelineTest, IncrementalFinalGenerationMatchesUninterrupted) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 1;
  options.snapshot_interval = 8;
  options.incremental_snapshots = true;
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->final_snapshot, nullptr);
  EXPECT_GE(result->snapshot_stats.cuts, 2u);
  EXPECT_EQ(result->snapshot_stats.delta_cuts,
            result->snapshot_stats.cuts - 1);  // everything after the base

  const size_t train_end = data->train_size();
  auto ref_store = MakeStore("cafe", context);
  ASSERT_TRUE(ref_store.ok());
  auto ref_model = MakeModel("dlrm", model_config, ref_store->get());
  ASSERT_TRUE(ref_model.ok());
  for (size_t start = 0; start < train_end; start += 128) {
    (*ref_model)->TrainStep(
        data->GetBatch(start, std::min<size_t>(128, train_end - start)));
  }
  auto ref_frozen = FrozenStore::Wrap(ref_store->get());
  ExpectStoresBitIdentical(*result->final_snapshot->store, *ref_frozen,
                           "incremental online pipeline final generation");
  ExpectDenseParamsMatchSnapshot(ref_model->get(), *result->final_snapshot,
                                 "incremental pipeline final dense weights");
}

// Train-while-cut with a parallel sharded backward: the online pipeline runs
// incremental delta cuts while the embedding scatter fans out across worker
// threads, and the final generation must STILL be bit-identical to a serial
// uninterrupted offline run. Exercised under TSan in CI — the per-shard
// dirty-set staging, deferred cafe SGD ops, and the step-boundary quiesce
// before each cut all get raced against live serving traffic here.
TEST(OnlinePipelineTest, ParallelBackwardIncrementalMatchesSerialTraining) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 1;
  options.snapshot_interval = 8;
  options.incremental_snapshots = true;
  options.backward_threads = 3;  // odd shard count: rows split unevenly
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->final_snapshot, nullptr);
  EXPECT_GE(result->snapshot_stats.cuts, 2u);
  EXPECT_EQ(result->snapshot_stats.delta_cuts,
            result->snapshot_stats.cuts - 1);

  // Serial reference: single-threaded backward, no serving, no snapshots.
  const size_t train_end = data->train_size();
  auto ref_store = MakeStore("cafe", context);
  ASSERT_TRUE(ref_store.ok());
  auto ref_model = MakeModel("dlrm", model_config, ref_store->get());
  ASSERT_TRUE(ref_model.ok());
  for (size_t start = 0; start < train_end; start += 128) {
    (*ref_model)->TrainStep(
        data->GetBatch(start, std::min<size_t>(128, train_end - start)));
  }
  auto ref_frozen = FrozenStore::Wrap(ref_store->get());
  ExpectStoresBitIdentical(*result->final_snapshot->store, *ref_frozen,
                           "parallel-backward pipeline final generation");
  ExpectDenseParamsMatchSnapshot(ref_model->get(), *result->final_snapshot,
                                 "parallel-backward pipeline dense weights");
}

// Under a tiny admission cap and heavy client flooding, the pipeline sheds
// load (queue depth stays within the cap) instead of stretching latency.
TEST(OnlinePipelineTest, AdmissionCapBoundsQueueDepthUnderOverload) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(1.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 2;  // enough steps for the clients to saturate the queue
  options.snapshot_interval = 16;
  options.server.num_workers = 1;
  options.server.max_batch = 32;
  options.server.max_wait_us = 2000;
  options.server.max_queue_samples = 64;
  options.num_clients = 4;
  options.request_size = 16;
  options.client_inflight = 32;
  auto result = RunOnlinePipeline("full", context, "wdl", model_config,
                                  *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->requests_ok, 0u);
  EXPECT_LE(result->server_stats.peak_queue_depth,
            options.server.max_queue_samples);
  EXPECT_EQ(result->server_stats.queue_depth, 0u);  // drained at the end
}

// ------------------------------------------------------------- telemetry --
#ifndef CAFE_OBS_DISABLED

// Minimal loopback HTTP GET (mirrors tests/obs_test.cc) for scraping the
// pipeline's live stats endpoint mid-run.
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char chunk[1024];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// Pull one "key":<number> value out of a single-line JSON object. The
// timeline fields are flat numerics, so a substring scan suffices.
double JsonNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in: " << line;
  if (at == std::string::npos) return -1.0;
  return std::strtod(line.c_str() + at + needle.size(), nullptr);
}

// The online pipeline's telemetry, end to end: a live scrape mid-run shows
// trainer/store/snapshot/server metrics, and the JSONL timeline it appends
// is monotone in BOTH step and generation (each is sampled from a monotone
// source; any regression here means a torn read in the sampler).
TEST(OnlinePipelineTest, TelemetryTimelineMonotoneAndLiveScrape) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  const ModelConfig model_config = MakeRolloutModelConfig(*data);

  const std::string timeline_path =
      testing::TempDir() + "/cafe_pipeline_timeline.jsonl";
  const std::string metrics_path =
      testing::TempDir() + "/cafe_pipeline_metrics.json";
  std::remove(timeline_path.c_str());
  std::remove(metrics_path.c_str());

  // Fixed loopback port so the scraper thread can poll while the pipeline
  // is still training (an ephemeral port is only known after the run).
  constexpr int kScrapePort = 19931;
  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 2;  // long enough for several mid-run scrapes
  options.snapshot_interval = 8;
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  options.stats_port = kScrapePort;
  options.timeline_path = timeline_path;
  options.timeline_interval_ms = 5;
  options.metrics_json_path = metrics_path;

  std::atomic<bool> stop_scraper{false};
  std::string live_scrape;  // written by the scraper, read after join
  std::thread scraper([&]() {
    while (!stop_scraper.load(std::memory_order_acquire)) {
      const std::string text = HttpGet(kScrapePort, "/metrics");
      if (text.find("cafe_train_steps_total") != std::string::npos) {
        live_scrape = text;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  *data, options);
  stop_scraper.store(true, std::memory_order_release);
  scraper.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats_port, kScrapePort);

  // The mid-run scrape saw every instrumented layer.
  ASSERT_FALSE(live_scrape.empty()) << "scraper never reached the endpoint";
  EXPECT_NE(live_scrape.find("cafe_train_steps_total"), std::string::npos);
  EXPECT_NE(live_scrape.find("cafe_store_cafe_lookup_ids_total"),
            std::string::npos);
  EXPECT_NE(live_scrape.find("cafe_snapshot_cuts_total"), std::string::npos);
  EXPECT_NE(live_scrape.find("cafe_serve_requests_total"), std::string::npos);

  // Timeline: every line parses, both orderings hold, the final line
  // reflects the fully trained, finally-installed state.
  std::ifstream timeline(timeline_path);
  ASSERT_TRUE(timeline.good()) << timeline_path;
  std::string line;
  uint64_t lines = 0;
  double prev_step = -1.0, prev_generation = -1.0;
  double last_step = 0.0, last_generation = 0.0;
  while (std::getline(timeline, line)) {
    ++lines;
    const double step = JsonNumber(line, "step");
    const double generation = JsonNumber(line, "generation");
    JsonNumber(line, "t_us");
    JsonNumber(line, "loss_ema");
    JsonNumber(line, "queue_depth");
    JsonNumber(line, "shed_rate");
    JsonNumber(line, "requests_total");
    EXPECT_GE(step, prev_step) << "step regressed at line " << lines;
    EXPECT_GE(generation, prev_generation)
        << "generation regressed at line " << lines;
    prev_step = step;
    prev_generation = generation;
    last_step = step;
    last_generation = generation;
  }
  EXPECT_EQ(lines, result->timeline_samples);
  EXPECT_GE(lines, 2u);  // at least one mid-run sample plus the final one
  EXPECT_EQ(static_cast<uint64_t>(last_step), result->train_steps);
  EXPECT_EQ(static_cast<uint64_t>(last_generation),
            result->server_stats.snapshot_generation);

  // Final registry snapshot: the required keys for the bench validator.
  std::ifstream metrics(metrics_path);
  ASSERT_TRUE(metrics.good()) << metrics_path;
  std::string snapshot((std::istreambuf_iterator<char>(metrics)),
                       std::istreambuf_iterator<char>());
  EXPECT_NE(snapshot.find("\"train.steps_total\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"snapshot.publish_us\""), std::string::npos);
  EXPECT_NE(snapshot.find("\"serve.shed_rate\""), std::string::npos);
}

#endif  // CAFE_OBS_DISABLED

}  // namespace
}  // namespace cafe
