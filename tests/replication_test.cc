// The replication-tier test battery: frame codec self-healing, base +
// O(dirty) delta streaming to replicas over pipe and TCP transports, the
// full lifecycle (late-join base resync, dropped-frame generation gap ->
// rebase, corrupt/truncated frames -> poisoned chain + recovery, reorder,
// delay), replica serving parity against a source-side freeze, and the
// stream-while-train online pipeline with replicas attached. These tests
// are also the ThreadSanitizer workload for src/replicate/.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/zipf.h"
#include "data/synthetic.h"
#include "io/serialize.h"
#include "replicate/durable_log.h"
#include "replicate/fault_injector.h"
#include "replicate/frame.h"
#include "replicate/replica_manager.h"
#include "replicate/replication_source.h"
#include "replicate/transport.h"
#include "serve/frozen_store.h"
#include "serve/snapshot_manager.h"
#include "serve/swappable_store.h"
#include "train/model_factory.h"
#include "train/online_pipeline.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

using replicate::ByteChannel;
using replicate::FaultyChannel;
using replicate::Frame;
using replicate::FrameKind;
using replicate::FrameParser;
using replicate::MakePipeTransport;
using replicate::MakeTcpTransport;
using replicate::ReplicaManager;
using replicate::ReplicationSource;
using replicate::TransportPair;

constexpr uint64_t kFeatures = 5000;
constexpr uint32_t kDim = 8;
constexpr size_t kBatch = 64;
constexpr uint64_t kWaitUs = 20000000;  // generous: CI under TSan is slow

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

/// Deterministic training stream (same idiom as hot_swap_test).
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

std::string SaveStateBytes(const EmbeddingStore& store) {
  io::Writer writer;
  const Status status = store.SaveState(&writer);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return writer.Release();
}

struct StoreCase {
  const char* name;
  double cr;
};

const StoreCase kAllStores[] = {
    {"full", 1.0},  {"hash", 20.0},    {"qr", 10.0},    {"robe", 10.0},    {"ada", 2.0},
    {"mde", 2.0},   {"offline", 20.0}, {"cafe", 20.0},  {"cafe-ml", 20.0},
};

// ---------------------------------------------------------------------------
// Frame codec.
// ---------------------------------------------------------------------------

Frame MakeDataFrame(FrameKind kind, uint64_t generation, size_t payload_bytes,
                    char fill) {
  Frame frame;
  frame.kind = kind;
  frame.generation = generation;
  frame.train_step = generation * 10;
  frame.payload.assign(payload_bytes, fill);
  return frame;
}

TEST(FrameCodecTest, RoundTripAcrossArbitraryChunkBoundaries) {
  const Frame frames[] = {
      MakeDataFrame(FrameKind::kBase, 1, 1000, 'a'),
      MakeDataFrame(FrameKind::kAck, 2, 0, ' '),  // zero-length payload
      MakeDataFrame(FrameKind::kDelta, 3, 37, 'b'),
  };
  std::string stream;
  for (const Frame& frame : frames) stream += EncodeFrame(frame);

  // Feed one byte at a time: every header/payload/fingerprint boundary is
  // also a chunk boundary.
  FrameParser parser;
  std::vector<Frame> parsed;
  for (const char byte : stream) {
    parser.Feed(&byte, 1);
    Frame out;
    while (parser.Next(&out) == FrameParser::Result::kFrame) {
      parsed.push_back(out);
    }
  }
  ASSERT_EQ(parsed.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(parsed[i].kind, frames[i].kind);
    EXPECT_EQ(parsed[i].generation, frames[i].generation);
    EXPECT_EQ(parsed[i].train_step, frames[i].train_step);
    EXPECT_EQ(parsed[i].payload, frames[i].payload);
  }
  EXPECT_EQ(parser.corrupt_events(), 0u);
  EXPECT_EQ(parser.buffered_bytes(), 0u);
}

std::vector<Frame> ParseAll(FrameParser* parser, const std::string& bytes) {
  parser->Feed(bytes.data(), bytes.size());
  std::vector<Frame> parsed;
  Frame out;
  while (true) {
    const FrameParser::Result result = parser->Next(&out);
    if (result == FrameParser::Result::kNeedMore) break;
    if (result == FrameParser::Result::kFrame) parsed.push_back(out);
  }
  return parsed;
}

TEST(FrameCodecTest, FlippedByteSkipsOneFrameAndRecovers) {
  std::string stream = EncodeFrame(MakeDataFrame(FrameKind::kBase, 1, 64, 'a'));
  std::string f2 = EncodeFrame(MakeDataFrame(FrameKind::kDelta, 2, 64, 'b'));
  f2[f2.size() / 2] ^= 0x20;  // damage frame 2's payload
  stream += f2;
  stream += EncodeFrame(MakeDataFrame(FrameKind::kDelta, 3, 64, 'c'));

  FrameParser parser;
  const std::vector<Frame> parsed = ParseAll(&parser, stream);
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].generation, 1u);
  EXPECT_EQ(parsed[1].generation, 3u);
  EXPECT_GE(parser.corrupt_events(), 1u);
}

TEST(FrameCodecTest, TruncatedFrameConsumesSuccessorBytesButResyncs) {
  std::string stream = EncodeFrame(MakeDataFrame(FrameKind::kBase, 1, 64, 'a'));
  const std::string f2 =
      EncodeFrame(MakeDataFrame(FrameKind::kDelta, 2, 200, 'b'));
  stream += f2.substr(0, f2.size() / 2);  // frame 2 cut mid-payload
  stream += EncodeFrame(MakeDataFrame(FrameKind::kDelta, 3, 64, 'c'));
  stream += EncodeFrame(MakeDataFrame(FrameKind::kDelta, 4, 64, 'd'));

  // The truncated frame swallows the next frame's bytes as its missing
  // payload and fails the fingerprint; the rescan re-locks on a LATER
  // magic. Frame 3 may be collateral damage; frame 4 must parse.
  FrameParser parser;
  const std::vector<Frame> parsed = ParseAll(&parser, stream);
  ASSERT_GE(parsed.size(), 2u);
  EXPECT_EQ(parsed.front().generation, 1u);
  EXPECT_EQ(parsed.back().generation, 4u);
  EXPECT_GE(parser.corrupt_events(), 1u);
  for (const Frame& frame : parsed) EXPECT_NE(frame.generation, 2u);
}

TEST(FrameCodecTest, InvalidKindAndOversizePayloadAreCorrupt) {
  // Hand-build a header with an invalid kind.
  io::Writer bad_kind;
  bad_kind.WriteU32(replicate::kFrameMagic);
  bad_kind.WriteU8(99);
  bad_kind.WriteU64(5);
  bad_kind.WriteU64(50);
  bad_kind.WriteU64(0);
  std::string stream = bad_kind.buffer();
  stream += EncodeFrame(MakeDataFrame(FrameKind::kDelta, 6, 16, 'x'));

  FrameParser parser;
  std::vector<Frame> parsed = ParseAll(&parser, stream);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].generation, 6u);
  EXPECT_GE(parser.corrupt_events(), 1u);

  // A flipped payload_size asking for gigabytes must be rejected as corrupt
  // instead of waiting for 2^40 bytes that will never come.
  io::Writer oversize;
  oversize.WriteU32(replicate::kFrameMagic);
  oversize.WriteU8(static_cast<uint8_t>(FrameKind::kDelta));
  oversize.WriteU64(7);
  oversize.WriteU64(70);
  oversize.WriteU64(1ull << 40);
  FrameParser parser2;
  std::string stream2 = oversize.buffer();
  stream2 += EncodeFrame(MakeDataFrame(FrameKind::kDelta, 8, 16, 'y'));
  parsed = ParseAll(&parser2, stream2);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].generation, 8u);
  EXPECT_GE(parser2.corrupt_events(), 1u);
}

TEST(FrameCodecTest, AuxRoundTripAndTrailingBytesRejected) {
  replicate::AuxState aux;
  aux.model_name = "dlrm";
  aux.dense_params = {{1.0f, -2.5f, 0.0f}, {}, {3.25f}};
  aux.has_optimizer = true;
  aux.optimizer_state = std::string("opt\0state", 9);

  const std::string encoded = EncodeAux(aux);
  replicate::AuxState decoded;
  ASSERT_TRUE(DecodeAux(encoded, &decoded).ok());
  EXPECT_EQ(decoded.model_name, aux.model_name);
  ASSERT_EQ(decoded.dense_params.size(), aux.dense_params.size());
  for (size_t i = 0; i < aux.dense_params.size(); ++i) {
    EXPECT_EQ(decoded.dense_params[i], aux.dense_params[i]);
  }
  EXPECT_TRUE(decoded.has_optimizer);
  EXPECT_EQ(decoded.optimizer_state, aux.optimizer_state);

  replicate::AuxState reject;
  EXPECT_FALSE(DecodeAux(encoded + "x", &reject).ok());
}

// The wire layout built by hand, field by field (little-endian fixed width,
// then FNV-1a over everything before the trailer).
std::string HandBuiltFrame(FrameKind kind, uint64_t generation,
                           uint64_t train_step, const std::string& payload) {
  std::string bytes;
  auto put = [&bytes](const void* data, size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  const uint32_t magic = replicate::kFrameMagic;
  const uint8_t kind_byte = static_cast<uint8_t>(kind);
  const uint64_t payload_size = payload.size();
  put(&magic, sizeof(magic));
  put(&kind_byte, sizeof(kind_byte));
  put(&generation, sizeof(generation));
  put(&train_step, sizeof(train_step));
  put(&payload_size, sizeof(payload_size));
  bytes += payload;
  const uint64_t fp = io::Fingerprint(bytes.data(), bytes.size());
  put(&fp, sizeof(fp));
  return bytes;
}

std::string RandomPayload(size_t bytes, uint64_t seed) {
  Rng rng(seed);
  std::string payload(bytes, '\0');
  for (char& c : payload) c = static_cast<char>(rng.Next() & 0xff);
  return payload;
}

TEST(FrameCodecTest, WireFormatIsPinnedByteForByte) {
  Frame aux = MakeDataFrame(FrameKind::kAux, 1ull << 40, 0, ' ');
  aux.train_step = ~0ull;
  aux.payload = RandomPayload(4099, 11);
  const Frame frames[] = {
      MakeDataFrame(FrameKind::kHeartbeat, 0, 0, ' '),
      MakeDataFrame(FrameKind::kDelta, 7, 1000, 'q'),
      aux,
  };
  for (const Frame& frame : frames) {
    const std::string want = HandBuiltFrame(frame.kind, frame.generation,
                                            frame.train_step, frame.payload);
    ASSERT_EQ(want.size(), replicate::kFrameOverheadBytes + frame.payload.size());
    EXPECT_EQ(EncodeFrame(frame), want);
    EXPECT_EQ(EncodeFrame(frame.kind, frame.generation, frame.train_step,
                          frame.payload),
              want);
  }
  // The magic reads "CAFE" on the wire.
  EXPECT_EQ(HandBuiltFrame(FrameKind::kAck, 0, 0, "").substr(0, 4), "CAFE");
}

/// Small base, a multi-megabyte delta, small delta: the stream the
/// streaming-verification tests feed. `*big_offset` / `*big_size` locate
/// the middle frame's encoded bytes.
std::vector<Frame> BigFrameStream(std::string* stream, size_t* big_offset,
                                  size_t* big_size) {
  Frame big = MakeDataFrame(FrameKind::kDelta, 2, 0, ' ');
  big.payload = RandomPayload((2u << 20) + 123, 5);
  std::vector<Frame> frames = {MakeDataFrame(FrameKind::kBase, 1, 100, 'a'),
                               big,
                               MakeDataFrame(FrameKind::kDelta, 3, 50, 'c')};
  stream->clear();
  for (const Frame& frame : frames) {
    if (frame.generation == 2) *big_offset = stream->size();
    *stream += EncodeFrame(frame);
  }
  *big_size = replicate::kFrameOverheadBytes + big.payload.size();
  return frames;
}

/// Feeds `stream` in `chunk`-byte pieces, draining Next() after each.
std::vector<Frame> FeedInChunks(FrameParser* parser, const std::string& stream,
                                size_t chunk) {
  std::vector<Frame> parsed;
  Frame out;
  for (size_t at = 0; at < stream.size(); at += chunk) {
    parser->Feed(stream.data() + at, std::min(chunk, stream.size() - at));
    while (true) {
      const FrameParser::Result result = parser->Next(&out);
      if (result == FrameParser::Result::kNeedMore) break;
      if (result == FrameParser::Result::kFrame) parsed.push_back(out);
    }
  }
  return parsed;
}

// One byte at a time, odd sizes, a page, a socket-sized read, and the whole
// stream at once.
const size_t kChunkSizes[] = {1, 7, 4096, 262144, SIZE_MAX};

TEST(FrameCodecTest, StreamedVerificationAcceptsEveryChunking) {
  std::string stream;
  size_t big_offset = 0, big_size = 0;
  const std::vector<Frame> frames =
      BigFrameStream(&stream, &big_offset, &big_size);
  for (const size_t chunk : kChunkSizes) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    FrameParser parser;
    const std::vector<Frame> parsed = FeedInChunks(&parser, stream, chunk);
    ASSERT_EQ(parsed.size(), frames.size());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(parsed[i].kind, frames[i].kind);
      EXPECT_EQ(parsed[i].generation, frames[i].generation);
      EXPECT_EQ(parsed[i].train_step, frames[i].train_step);
      EXPECT_TRUE(parsed[i].payload == frames[i].payload) << "frame " << i;
    }
    EXPECT_EQ(parser.corrupt_events(), 0u);
    EXPECT_EQ(parser.buffered_bytes(), 0u);
  }
}

TEST(FrameCodecTest, StreamedVerificationRejectsAFlipAnywhereInTheFrame) {
  std::string stream;
  size_t big_offset = 0, big_size = 0;
  const std::vector<Frame> frames =
      BigFrameStream(&stream, &big_offset, &big_size);
  const struct {
    const char* where;
    size_t offset;  // within the big frame
  } flips[] = {
      {"header (generation)", 5},
      {"first payload byte", replicate::kFrameHeaderBytes},
      {"last payload byte", big_size - 9},
      {"trailer", big_size - 1},
  };
  for (const auto& flip : flips) {
    std::string damaged = stream;
    damaged[big_offset + flip.offset] ^= 0x01;
    for (const size_t chunk : kChunkSizes) {
      SCOPED_TRACE(std::string(flip.where) + ", chunk " +
                   std::to_string(chunk));
      FrameParser parser;
      const std::vector<Frame> parsed = FeedInChunks(&parser, damaged, chunk);
      // Only the damaged frame is lost; the parser re-locks on the next.
      ASSERT_EQ(parsed.size(), 2u);
      EXPECT_EQ(parsed[0].generation, 1u);
      EXPECT_EQ(parsed[1].generation, 3u);
      EXPECT_EQ(parsed[1].payload, frames[2].payload);
      EXPECT_GE(parser.corrupt_events(), 1u);
      EXPECT_EQ(parser.buffered_bytes(), 0u);
    }
  }
}

// A well-formed header may declare up to kMaxFramePayloadBytes, but until
// the bytes arrive (and the fingerprint vouches for them) the declared
// length must not size anything: the receive buffer tracks what was fed.
TEST(FrameCodecTest, UnverifiedLengthNeverSizesTheReceiveBuffer) {
  io::Writer header;
  header.WriteU32(replicate::kFrameMagic);
  header.WriteU8(static_cast<uint8_t>(FrameKind::kDelta));
  header.WriteU64(9);
  header.WriteU64(90);
  header.WriteU64(1ull << 30);  // ~1 GiB declared
  const std::string head = header.buffer() + std::string(100, 'z');

  FrameParser parser;
  Frame out;
  parser.Feed(head.data(), head.size());
  EXPECT_EQ(parser.Next(&out), FrameParser::Result::kNeedMore);
  EXPECT_LE(parser.buffer_capacity(), std::max<size_t>(4096, 2 * head.size()));

  size_t fed = head.size();
  const std::string more(64 << 10, 'z');
  for (int i = 0; i < 16; ++i) {
    parser.Feed(more.data(), more.size());
    fed += more.size();
    EXPECT_EQ(parser.Next(&out), FrameParser::Result::kNeedMore);
    EXPECT_LE(parser.buffer_capacity(), 2 * fed);
  }
  EXPECT_EQ(parser.buffered_bytes(), fed);
}

// ---------------------------------------------------------------------------
// Source -> replica streaming rig.
// ---------------------------------------------------------------------------

/// One source (live store + idle-mode incremental SnapshotManager +
/// ReplicationSource) with N pipe/TCP replicas. Cuts are driven directly on
/// the test thread (idle-trainer direct copy), so the generation sequence
/// is deterministic; the replica side applies asynchronously.
class ReplicationRig {
 public:
  ReplicationRig(const std::string& store_name, double cr,
                 ReplicationSource::Options source_options = {})
      : ReplicationRig(store_name, MakeContext(cr), source_options) {}

  ReplicationRig(const std::string& store_name,
                 const StoreFactoryContext& context,
                 ReplicationSource::Options source_options = {})
      : name_(store_name), context_(context), stream_(777) {
    auto live = MakeStore(name_, context_);
    EXPECT_TRUE(live.ok()) << live.status().ToString();
    live_ = std::move(live).value();
    source_ = std::make_unique<ReplicationSource>(Factory(), source_options);
    SnapshotManager::Options options;
    options.incremental = true;
    options.payload_observer = source_->MakeObserver();
    manager_ = std::make_unique<SnapshotManager>(live_.get(), nullptr,
                                                 Factory(), options);
  }

  SnapshotManager::FreshStoreFactory Factory() const {
    const std::string name = name_;
    const StoreFactoryContext context = context_;
    return [name, context]() { return MakeStore(name, context); };
  }

  ReplicaManager* AddPipeReplica() {
    return AddReplicaOnTransport(MakePipeTransport());
  }

  /// A pipe replica whose source end applies `action` (with `arg`) to the
  /// third frame it writes — generation 3 when every cut ships one frame.
  ReplicaManager* AddPipeReplica(FaultyChannel::Action action, uint64_t arg) {
    TransportPair pair = MakePipeTransport();
    auto faulty = std::make_unique<FaultyChannel>(std::move(pair.source));
    faulty->Arm(action, 2, arg);
    pair.source = std::move(faulty);
    return AddReplicaOnTransport(std::move(pair));
  }

  ReplicaManager* AddReplicaOnTransport(TransportPair pair) {
    ReplicaManager::Options options;
    options.name = "test_replica" + std::to_string(replicas_.size());
    return AddReplicaOnTransport(std::move(pair), options);
  }

  ReplicaManager* AddReplicaOnTransport(TransportPair pair,
                                        ReplicaManager::Options options) {
    const Status added = source_->AddReplica(std::move(pair.source));
    EXPECT_TRUE(added.ok()) << added.ToString();
    replicas_.push_back(std::make_unique<ReplicaManager>(
        Factory(), std::move(pair.replica), options));
    const Status started = replicas_.back()->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return replicas_.back().get();
  }

  /// Trains `batches` on the live store, then cuts one generation.
  void TrainAndCut(size_t batches) {
    std::vector<uint64_t> ids;
    std::vector<float> grads;
    for (size_t k = 0; k < batches; ++k) {
      stream_.Next(&ids, &grads);
      live_->ApplyGradientBatch(ids.data(), kBatch, grads.data(), 0.05f);
      live_->Tick();
    }
    auto snapshot = manager_->Cut();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    last_generation_ = (*snapshot)->generation;
  }

  void ExpectReplicaByteIdentical(ReplicaManager* replica,
                                  const std::string& what) {
    const Status caught_up =
        replica->WaitForGeneration(last_generation_, kWaitUs);
    ASSERT_TRUE(caught_up.ok()) << what << ": " << caught_up.ToString();
    auto snapshot = replica->swappable()->Acquire();
    ASSERT_NE(snapshot, nullptr) << what;
    EXPECT_EQ(snapshot->generation, last_generation_) << what;
    EXPECT_EQ(SaveStateBytes(*snapshot->store->underlying()),
              SaveStateBytes(*live_))
        << what << ": replica state diverged from the source";
  }

  EmbeddingStore* live() { return live_.get(); }
  SnapshotManager* manager() { return manager_.get(); }
  ReplicationSource* source() { return source_.get(); }
  uint64_t last_generation() const { return last_generation_; }

 private:
  std::string name_;
  StoreFactoryContext context_;
  GradStream stream_;
  std::unique_ptr<EmbeddingStore> live_;
  std::unique_ptr<ReplicationSource> source_;
  std::unique_ptr<SnapshotManager> manager_;
  std::vector<std::unique_ptr<ReplicaManager>> replicas_;
  uint64_t last_generation_ = 0;
};

class ReplicaParityTest : public ::testing::TestWithParam<StoreCase> {};

// The tentpole guarantee, per store: after a base and k streamed deltas the
// replica's resident state is BYTE-identical to the source's live store —
// the same SaveState bytes — and its serving lookups match a source-side
// freeze exactly.
TEST_P(ReplicaParityTest, BasePlusDeltasByteIdenticalForEveryStore) {
  ReplicationRig rig(GetParam().name, GetParam().cr);
  ReplicaManager* replica = rig.AddPipeReplica();

  rig.TrainAndCut(5);  // generation 1: full base
  // Pin the base to generation 1 (the kHello is processed asynchronously;
  // waiting here keeps the frame sequence — and the stats below — exact).
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 4; ++k) rig.TrainAndCut(10);  // generations 2-5: deltas
  rig.ExpectReplicaByteIdentical(replica, GetParam().name);

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.frames_received, 5u);
  EXPECT_EQ(stats.stale_skipped, 0u);
  EXPECT_EQ(stats.poisoned_skipped, 0u);
  EXPECT_EQ(stats.bases_applied, 1u);
  EXPECT_EQ(stats.deltas_applied, 4u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
  EXPECT_EQ(stats.gap_frames, 0u);
  EXPECT_EQ(stats.resyncs_requested, 0u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();

  // Serving parity: every id the replica serves equals the source freeze.
  auto source_frozen = FrozenStore::Wrap(rig.live());
  std::vector<float> want(kDim), got(kDim);
  SwappableStore* serving = replica->swappable();
  for (uint64_t id = 0; id < kFeatures; ++id) {
    source_frozen->LookupConst(id, want.data());
    serving->LookupConst(id, got.data());
    ASSERT_EQ(std::memcmp(want.data(), got.data(), kDim * sizeof(float)), 0)
        << GetParam().name << ": serving lookup of id " << id << " diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStores, ReplicaParityTest, ::testing::ValuesIn(kAllStores),
    [](const ::testing::TestParamInfo<StoreCase>& info) {
      std::string name = info.param.name;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// A replica that connects AFTER several generations have streamed gets a
// single base at the source's head (served from the source's resident head
// store — no trainer involvement) and rides deltas from there.
TEST(ReplicationLifecycleTest, LateJoinerIsServedABaseAtTheHead) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* early = rig.AddPipeReplica();
  rig.TrainAndCut(5);
  ASSERT_TRUE(early->WaitForGeneration(1, kWaitUs).ok());
  rig.TrainAndCut(10);
  rig.TrainAndCut(10);  // head is generation 3

  ReplicaManager* late = rig.AddPipeReplica();
  ASSERT_TRUE(late->WaitForGeneration(3, kWaitUs).ok());
  rig.TrainAndCut(10);
  rig.TrainAndCut(10);

  rig.ExpectReplicaByteIdentical(early, "early replica");
  rig.ExpectReplicaByteIdentical(late, "late replica");

  const ReplicaManager::Stats late_stats = late->stats();
  EXPECT_EQ(late_stats.bases_applied, 1u);
  EXPECT_EQ(late_stats.deltas_applied, 2u);  // only generations 4 and 5
  const ReplicaManager::Stats early_stats = early->stats();
  EXPECT_EQ(early_stats.bases_applied, 1u);
  EXPECT_EQ(early_stats.deltas_applied, 4u);
}

// A dropped frame parses cleanly on the wire — the generation GAP at the
// replica is the signal. The replica must poison its chain, request one
// resync, and rebase from the answering kBase.
TEST(ReplicationLifecycleTest, DroppedFrameGapForcesRebase) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddPipeReplica(FaultyChannel::Action::kDrop, 0);  // generation 3

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 5; ++k) rig.TrainAndCut(10);  // generations 2-6
  rig.ExpectReplicaByteIdentical(replica, "dropped frame");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_GE(stats.gap_frames, 1u);
  EXPECT_EQ(stats.resyncs_requested, 1u);
  EXPECT_EQ(stats.bases_applied, 2u);  // initial sync + rebase
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
}

// A flipped byte fails the frame fingerprint; the parser skips the frame,
// the replica poisons its chain and recovers through one resync.
TEST(ReplicationLifecycleTest, CorruptFrameForcesResyncAndRecovery) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddPipeReplica(FaultyChannel::Action::kCorrupt, 41);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 5; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "corrupt frame");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_GE(stats.corrupt_frames, 1u);
  EXPECT_EQ(stats.resyncs_requested, 1u);
  EXPECT_GE(stats.bases_applied, 2u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
}

// A truncated frame takes its successor's bytes down with it (they are
// consumed as the missing payload); the parser re-locks on a later magic
// and the replica recovers through the same poison/resync path.
TEST(ReplicationLifecycleTest, TruncatedFrameForcesResyncAndRecovery) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddPipeReplica(FaultyChannel::Action::kTruncate, 0);  // keep half

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 5; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "truncated frame");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_GE(stats.corrupt_frames, 1u);
  EXPECT_GE(stats.resyncs_requested, 1u);
  EXPECT_GE(stats.bases_applied, 2u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
}

// Reordered frames: the early-arriving LATER generation reads as a gap
// (resync), and the late-arriving EARLIER one is skipped as stale — never
// applied out of order, never a second poison.
TEST(ReplicationLifecycleTest, ReorderedFramesForceRebaseNotMisorder) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddPipeReplica(FaultyChannel::Action::kReorder, 0);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 5; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "reordered frames");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_GE(stats.gap_frames, 1u);
  EXPECT_EQ(stats.resyncs_requested, 1u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
}

// A delayed frame is just lag: delivered intact, applied in order, no
// resync — the lifecycle machinery must not misread slowness as damage.
TEST(ReplicationLifecycleTest, DelayedFrameIsOnlyLag) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddPipeReplica(FaultyChannel::Action::kDelay, 50000);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 3; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "delayed frame");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.resyncs_requested, 0u);
  EXPECT_EQ(stats.bases_applied, 1u);
  EXPECT_EQ(stats.deltas_applied, 3u);
}

// A replica generation pinned past reclaim_wait_us makes the replica retire
// that buffer to the holder rather than replay into it, through both
// rebuild branches: a delta-only queue clones the serving buffer, and a
// rebase's queued base rebuilds from a fresh store. The held generation
// must stay frozen throughout.
TEST(ReplicationLifecycleTest, HeldReplicaGenerationsRetireTheirBuffers) {
  ReplicationRig rig("cafe", 20.0);
  TransportPair pair = MakePipeTransport();
  auto faulty = std::make_unique<FaultyChannel>(std::move(pair.source));
  FaultyChannel* link = faulty.get();  // owned by the source from here on
  pair.source = std::move(faulty);
  ReplicaManager::Options options;
  options.name = "retire_replica";
  options.reclaim_wait_us = 1000;
  ReplicaManager* replica =
      rig.AddReplicaOnTransport(std::move(pair), options);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  rig.TrainAndCut(10);
  ASSERT_TRUE(replica->WaitForGeneration(2, kWaitUs).ok());
  EXPECT_EQ(replica->stats().retired_buffers, 0u);

  // (a) Hold generation 2. Generation 3 replays into the other buffer;
  // generation 4 targets the held one with a delta-only queue -> clone.
  auto held_delta = replica->swappable()->Acquire();
  ASSERT_EQ(held_delta->generation, 2u);
  const std::string held_delta_bytes =
      SaveStateBytes(*held_delta->store->underlying());
  rig.TrainAndCut(10);
  rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "delta-only retire");
  EXPECT_EQ(replica->stats().retired_buffers, 1u);

  // (b) Hold generation 4 and drop the frame after next (generation 6):
  // generation 5 replays into the other buffer, generation 7 reads as a
  // gap, and the resync's base at 7 targets the held buffer -> fresh store.
  auto held_base = replica->swappable()->Acquire();
  ASSERT_EQ(held_base->generation, 4u);
  const std::string held_base_bytes =
      SaveStateBytes(*held_base->store->underlying());
  link->Arm(FaultyChannel::Action::kDrop, 1);
  for (int k = 0; k < 3; ++k) rig.TrainAndCut(10);  // generations 5-7
  rig.ExpectReplicaByteIdentical(replica, "rebase retire");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.retired_buffers, 2u);
  EXPECT_EQ(stats.resyncs_requested, 1u);
  EXPECT_EQ(stats.bases_applied, 2u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
  EXPECT_EQ(SaveStateBytes(*held_delta->store->underlying()),
            held_delta_bytes);
  EXPECT_EQ(SaveStateBytes(*held_base->store->underlying()), held_base_bytes);
}

// The same protocol over a real loopback socket: OS framing, partial
// reads, TCP_NODELAY — byte parity must hold exactly as over the pipe.
TEST(ReplicationLifecycleTest, TcpTransportStreamsByteIdentically) {
  auto transport = MakeTcpTransport();
  ASSERT_TRUE(transport.ok()) << transport.status().ToString();
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica =
      rig.AddReplicaOnTransport(std::move(transport).value());

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 3; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "tcp transport");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.corrupt_frames, 0u);
  EXPECT_EQ(stats.resyncs_requested, 0u);
}

// Source-side lag accounting: once a replica acks the head, its lag
// gauges return to zero; the per-link byte counters match what the stream
// actually carried.
TEST(ReplicationLifecycleTest, SourceTracksPerReplicaLag) {
  ReplicationRig rig("cafe", 20.0);
  ReplicaManager* replica = rig.AddPipeReplica();
  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  for (int k = 0; k < 3; ++k) rig.TrainAndCut(10);
  rig.ExpectReplicaByteIdentical(replica, "lag accounting");

  // Acks travel replica -> source asynchronously; poll until the last one
  // lands.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kWaitUs);
  ReplicationSource::Stats stats = rig.source()->stats();
  while (std::chrono::steady_clock::now() < deadline) {
    stats = rig.source()->stats();
    ASSERT_EQ(stats.replicas.size(), 1u);
    if (stats.replicas[0].acked_generation == rig.last_generation()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(stats.head_generation, rig.last_generation());
  EXPECT_EQ(stats.replicas[0].acked_generation, rig.last_generation());
  EXPECT_EQ(stats.replicas[0].lag_generations, 0u);
  EXPECT_EQ(stats.replicas[0].lag_bytes, 0u);
  EXPECT_TRUE(stats.replicas[0].alive);
  EXPECT_EQ(stats.replicas[0].base_resyncs, 1u);
  EXPECT_GT(stats.replicas[0].bytes_sent, 0u);
  EXPECT_TRUE(stats.head_status.ok()) << stats.head_status.ToString();
}

// A base of more than 32 MB over the in-process pipe. Pipe reads advance a
// head offset (compacting only when the dead prefix dominates) rather than
// erasing the lane's front per read, so the frame drains in linear time,
// well inside the replica wait.
TEST(ReplicationLifecycleTest, LargeBaseOverPipeArrivesByteEqual) {
  StoreFactoryContext context = MakeContext(1.0);
  context.embedding.total_features = 1u << 20;  // x 8 floats = 32 MiB
  context.layout = FieldLayout({1u << 20});
  ReplicationRig rig("full", context);
  ReplicaManager* replica = rig.AddPipeReplica();
  rig.TrainAndCut(2);
  EXPECT_GE(rig.manager()->stats().last_copy_bytes, 32u << 20);
  rig.ExpectReplicaByteIdentical(replica, "32 MB base over the pipe");
  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.bases_applied, 1u);
  EXPECT_EQ(stats.corrupt_frames, 0u);
}

// ---------------------------------------------------------------------------
// Typed transport statuses: flow control and the reconnect loop decide
// retry-vs-give-up from these codes, so they are contract, not detail.
// ---------------------------------------------------------------------------

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

TEST(TransportStatusTest, PipeWriteAfterCloseIsUnavailable) {
  TransportPair pair = MakePipeTransport();
  pair.replica->Close();
  const char byte = 'x';
  const Status status = pair.source->Write(&byte, 1);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
}

TEST(TransportStatusTest, BoundedPipeBlocksOnCapacityAndUnblocksOnClose) {
  TransportPair pair = MakePipeTransport(1024);
  const std::string chunk(800, 'x');
  ASSERT_TRUE(pair.source->Write(chunk.data(), chunk.size()).ok());

  // The second write exceeds capacity: it must BLOCK (not fail) until the
  // reader drains space.
  std::atomic<bool> second_done{false};
  std::thread writer([&] {
    EXPECT_TRUE(pair.source->Write(chunk.data(), chunk.size()).ok());
    second_done.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load(std::memory_order_acquire));
  char buf[4096];
  size_t drained = 0;
  while (drained < 2 * chunk.size()) {
    auto n = pair.replica->Read(buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
    drained += *n;
  }
  writer.join();
  EXPECT_TRUE(second_done.load(std::memory_order_acquire));

  // A writer blocked on capacity must be UNBLOCKED by Close — with the
  // typed verdict — not deadlocked.
  ASSERT_TRUE(pair.source->Write(chunk.data(), chunk.size()).ok());
  std::thread blocked([&] {
    const Status status = pair.source->Write(chunk.data(), chunk.size());
    EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status.ToString();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pair.replica->Close();
  blocked.join();
}

TEST(TransportStatusTest, TcpAcceptTimesOutAndRefusedConnectIsUnavailable) {
  auto listener = replicate::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const uint16_t port = (*listener)->port();

  auto accepted = (*listener)->Accept(30000);  // nobody dials
  ASSERT_FALSE(accepted.ok());
  EXPECT_EQ(accepted.status().code(), StatusCode::kDeadlineExceeded)
      << accepted.status().ToString();

  (*listener)->Close();
  auto dial = replicate::TcpConnect(port, 1000000);  // nobody listens now
  ASSERT_FALSE(dial.ok());
  EXPECT_EQ(dial.status().code(), StatusCode::kUnavailable)
      << dial.status().ToString();
}

TEST(TransportStatusTest, TcpListenerServesARedialOnTheSamePort) {
  auto listener = replicate::TcpListener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  const uint16_t port = (*listener)->port();
  for (int round = 0; round < 2; ++round) {
    auto dial = replicate::TcpConnect(port, 2000000);
    ASSERT_TRUE(dial.ok()) << dial.status().ToString();
    auto accepted = (*listener)->Accept(2000000);
    ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
    const std::string ping = "ping" + std::to_string(round);
    ASSERT_TRUE((*dial)->Write(ping.data(), ping.size()).ok());
    char buf[16];
    auto n = (*accepted)->Read(buf, sizeof(buf));
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    EXPECT_EQ(std::string(buf, *n), ping);
    (*dial)->Close();
    (*accepted)->Close();
  }
}

// ---------------------------------------------------------------------------
// Durable ledger.
// ---------------------------------------------------------------------------

TEST(DurableLogTest, LoadRestoresTheNewestValidChainAndPrunesDamage) {
  const std::string dir = FreshDir("cafe_durable_log");
  replicate::DurableReplicaLog log(dir);
  ASSERT_TRUE(log.Init().ok());
  EXPECT_EQ(log.Load().status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(log.AppendBase(MakeDataFrame(FrameKind::kBase, 3, 64, 'b')).ok());
  for (uint64_t g = 4; g <= 7; ++g) {
    ASSERT_TRUE(
        log.AppendDelta(MakeDataFrame(FrameKind::kDelta, g, 32, 'd')).ok());
  }
  EXPECT_EQ(log.delta_count(), 4u);

  // Bit-rot generation 6 on disk: the restored chain must stop at 5 (the
  // wire fingerprint doubles as the at-rest integrity check) and the
  // unusable tail must be pruned.
  ASSERT_TRUE(io::WriteFileAtomic(dir + "/delta-00000000000000000006.frame",
                                  "not a frame")
                  .ok());
  replicate::DurableReplicaLog reload(dir);
  ASSERT_TRUE(reload.Init().ok());
  auto restored = reload.Load();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->generation, 5u);
  ASSERT_EQ(restored->frames.size(), 3u);  // base 3 + deltas 4, 5
  EXPECT_EQ(restored->frames.front().kind, FrameKind::kBase);
  EXPECT_EQ(restored->frames.front().generation, 3u);
  EXPECT_EQ(restored->frames.back().generation, 5u);

  // A newer base subsumes the chain: only it (and a same-gen aux) survive.
  ASSERT_TRUE(
      reload.AppendBase(MakeDataFrame(FrameKind::kBase, 9, 64, 'B')).ok());
  EXPECT_EQ(reload.delta_count(), 0u);
  replicate::DurableReplicaLog compacted(dir);
  ASSERT_TRUE(compacted.Init().ok());
  auto after = compacted.Load();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->generation, 9u);
  ASSERT_EQ(after->frames.size(), 1u);
}

// Ledger files are raw wire frames. These bytes are what the previous
// encoder (a growing io::Writer, before frames were encoded into one
// presized shared buffer) wrote for base 3 and delta 4; they must keep
// loading, and today's encoder must still produce them.
TEST(DurableLogTest, LedgerWrittenByTheEarlierEncoderStillLoads) {
  const std::string base(
      "\x43\x41\x46\x45\x01\x03\x00\x00\x00\x00\x00\x00\x00\x1e\x00\x00"
      "\x00\x00\x00\x00\x00\x06\x00\x00\x00\x00\x00\x00\x00\x62\x61\x73"
      "\x65\x40\x33\x54\x0f\x8f\x33\xde\x02\x4c\xb6",
      43);
  const std::string delta(
      "\x43\x41\x46\x45\x02\x04\x00\x00\x00\x00\x00\x00\x00\x28\x00\x00"
      "\x00\x00\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x64\x65\x6c"
      "\x74\x61\x40\x34\xb5\xd8\x62\x6b\x38\xe7\x53\x22",
      44);
  EXPECT_EQ(EncodeFrame(FrameKind::kBase, 3, 30, "base@3"), base);
  EXPECT_EQ(EncodeFrame(FrameKind::kDelta, 4, 40, "delta@4"), delta);

  const std::string dir = FreshDir("cafe_durable_golden");
  ASSERT_TRUE(
      io::WriteFileAtomic(dir + "/base-00000000000000000003.frame", base)
          .ok());
  ASSERT_TRUE(
      io::WriteFileAtomic(dir + "/delta-00000000000000000004.frame", delta)
          .ok());
  replicate::DurableReplicaLog log(dir);
  ASSERT_TRUE(log.Init().ok());
  auto restored = log.Load();
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->generation, 4u);
  EXPECT_EQ(restored->train_step, 40u);
  ASSERT_EQ(restored->frames.size(), 2u);
  EXPECT_EQ(restored->frames[0].kind, FrameKind::kBase);
  EXPECT_EQ(restored->frames[0].payload, "base@3");
  EXPECT_EQ(restored->frames[1].kind, FrameKind::kDelta);
  EXPECT_EQ(restored->frames[1].payload, "delta@4");
}

// ---------------------------------------------------------------------------
// Durable rejoin: kill the replica at EVERY generation, restart it from its
// ledger, and check the rejoin path the source chose (delta catch-up from
// the history ring when it covers the gap, one full base otherwise).
// ---------------------------------------------------------------------------

TEST(ReplicaRejoinTest, KillAtEveryGenerationRejoinsViaDeltaOrBase) {
  constexpr uint64_t kHead = 6;  // generations cut while the replica is down
  constexpr uint64_t kRing = 2;  // delta history covers rejoins at kHead-2+
  for (uint64_t kill_at = 1; kill_at <= kHead; ++kill_at) {
    SCOPED_TRACE("killed at generation " + std::to_string(kill_at));
    ReplicationSource::Options source_options;
    source_options.delta_history_generations = kRing;
    ReplicationRig rig("cafe", 20.0, source_options);
    ReplicaManager::Options options;
    options.name = "rejoin_replica";
    options.durable_dir =
        FreshDir("cafe_rejoin_k" + std::to_string(kill_at));
    ReplicaManager* replica =
        rig.AddReplicaOnTransport(MakePipeTransport(), options);

    rig.TrainAndCut(5);  // generation 1: the base
    ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
    for (uint64_t g = 2; g <= kill_at; ++g) rig.TrainAndCut(5);
    ASSERT_TRUE(replica->WaitForGeneration(kill_at, kWaitUs).ok());
    replica->Shutdown();  // kill; the ledger survives

    for (uint64_t g = kill_at + 1; g <= kHead; ++g) rig.TrainAndCut(5);

    // Restart from the same ledger over a fresh transport. Serving resumes
    // at the restored generation BEFORE the link carries a byte.
    ReplicaManager* rejoined =
        rig.AddReplicaOnTransport(MakePipeTransport(), options);
    ASSERT_TRUE(rejoined->WaitForGeneration(kHead, kWaitUs).ok());
    rig.TrainAndCut(5);  // one more delta rides the re-established chain
    rig.ExpectReplicaByteIdentical(rejoined, "rejoined replica");

    const ReplicaManager::Stats stats = rejoined->stats();
    EXPECT_EQ(stats.restores, 1u);
    EXPECT_EQ(stats.restored_generation, kill_at);
    EXPECT_EQ(stats.resyncs_requested, 0u);
    if (kill_at >= kHead - kRing) {
      // Inside the ring: catch-up is pure deltas — no base shipped.
      EXPECT_EQ(stats.bases_applied, 0u);
      EXPECT_EQ(stats.deltas_applied, kHead + 1 - kill_at);
      const ReplicationSource::Stats source_stats = rig.source()->stats();
      EXPECT_GE(source_stats.delta_catchups, 1u);
    } else {
      // Older than the ring: one full base at the head, then deltas.
      EXPECT_EQ(stats.bases_applied, 1u);
      EXPECT_EQ(stats.deltas_applied, 1u);
    }
    EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
  }
}

// Fan-out shares one encoded frame across every link and the delta history
// ring. Three replicas ride a base and deltas; one is killed and rejoins
// with hello(G), served from the ring. All three must end byte-equal to
// the source (any path that mutated a shared frame would break one of
// them), and each link's counters still charge it every frame it was sent.
TEST(ReplicationLifecycleTest, SharedFramesReachEveryLinkUnchanged) {
  ReplicationSource::Options source_options;
  source_options.delta_history_generations = 8;
  ReplicationRig rig("cafe", 20.0, source_options);
  ReplicaManager* a = rig.AddPipeReplica();
  ReplicaManager* b = rig.AddPipeReplica();
  ReplicaManager::Options durable;
  durable.name = "fanout_rejoin";
  durable.durable_dir = FreshDir("cafe_fanout_rejoin");
  ReplicaManager* c = rig.AddReplicaOnTransport(MakePipeTransport(), durable);

  // Every cut is one data frame (no model, so no aux sidecar).
  uint64_t all_bytes = 0;  // sent to a link that saw every generation
  auto cut = [&rig, &all_bytes](size_t batches) {
    rig.TrainAndCut(batches);
    const uint64_t bytes = replicate::kFrameOverheadBytes +
                           rig.manager()->stats().last_copy_bytes;
    all_bytes += bytes;
    return bytes;
  };
  cut(5);
  for (ReplicaManager* replica : {a, b, c}) {
    ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  }
  cut(10);
  cut(10);
  ASSERT_TRUE(c->WaitForGeneration(3, kWaitUs).ok());
  const uint64_t killed_bytes = all_bytes;
  c->Shutdown();  // killed at generation 3; its ledger survives

  uint64_t catchup_bytes = 0;
  for (int k = 0; k < 3; ++k) catchup_bytes += cut(10);  // generations 4-6
  ReplicaManager* rejoined =
      rig.AddReplicaOnTransport(MakePipeTransport(), durable);
  ASSERT_TRUE(rejoined->WaitForGeneration(6, kWaitUs).ok());
  catchup_bytes += cut(10);  // generation 7 reaches everyone

  rig.ExpectReplicaByteIdentical(a, "replica a");
  rig.ExpectReplicaByteIdentical(b, "replica b");
  rig.ExpectReplicaByteIdentical(rejoined, "rejoined replica");
  const ReplicaManager::Stats rejoin_stats = rejoined->stats();
  EXPECT_EQ(rejoin_stats.restored_generation, 3u);
  EXPECT_EQ(rejoin_stats.bases_applied, 0u);
  EXPECT_EQ(rejoin_stats.deltas_applied, 4u);

  // Links 0-1 are a and b, 2 the killed c, 3 its rejoin. A sender counts a
  // frame just after its write returns, so poll until the counters settle.
  const uint64_t want[] = {all_bytes, all_bytes, killed_bytes, catchup_bytes};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kWaitUs);
  ReplicationSource::Stats stats = rig.source()->stats();
  auto settled = [&stats, &want] {
    for (size_t i = 0; i < 4; ++i) {
      if (stats.replicas[i].bytes_sent != want[i]) return false;
    }
    return true;
  };
  ASSERT_EQ(stats.replicas.size(), 4u);
  while (!settled() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    stats = rig.source()->stats();
  }
  uint64_t total = 0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(stats.replicas[i].bytes_sent, want[i]) << "link " << i;
    EXPECT_EQ(stats.replicas[i].send_queue_bytes, 0u) << "link " << i;
    EXPECT_EQ(stats.replicas[i].send_queue_frames, 0u) << "link " << i;
    total += stats.replicas[i].bytes_sent;
  }
  EXPECT_EQ(stats.bytes_sent, total);
  EXPECT_EQ(stats.delta_catchups, 1u);
}

// ---------------------------------------------------------------------------
// Flow control: a stalled consumer must cost bounded source memory, then
// re-enter through the rebase path once it drains.
// ---------------------------------------------------------------------------

TEST(FlowControlTest, StalledConsumerKeepsSourceMemoryBoundedThenRebases) {
  ReplicationSource::Options source_options;
  source_options.send_queue_high_bytes = 64ull << 10;
  source_options.send_queue_high_frames = 4;
  ReplicationRig rig("cafe", 20.0, source_options);

  TransportPair pair = MakePipeTransport();
  auto faulty =
      std::make_unique<replicate::FaultyChannel>(std::move(pair.source));
  replicate::FaultyChannel* stall = faulty.get();
  pair.source = std::move(faulty);
  ReplicaManager* replica = rig.AddReplicaOnTransport(std::move(pair));

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());

  // Stall the consumer, then keep publishing. Publish must never block,
  // and the link's queue must cap at the watermark — NOT buffer the run.
  stall->SetStalled(true);
  for (int k = 0; k < 12; ++k) rig.TrainAndCut(3);  // generations 2-13

  const ReplicationSource::Stats stalled = rig.source()->stats();
  ASSERT_EQ(stalled.replicas.size(), 1u);
  EXPECT_GE(stalled.replicas[0].queue_overflows, 1u);
  EXPECT_TRUE(stalled.replicas[0].stale);
  EXPECT_LE(stalled.replicas[0].send_queue_frames,
            source_options.send_queue_high_frames);
  EXPECT_LE(stalled.replicas[0].send_queue_bytes,
            source_options.send_queue_high_bytes);
  EXPECT_GE(stalled.queue_overflows, 1u);

  // A stalled consumer is lag: the wait times out with the typed code.
  const Status timeout = replica->WaitForGeneration(13, 50000);
  EXPECT_EQ(timeout.code(), StatusCode::kDeadlineExceeded)
      << timeout.ToString();

  // Unstall: the bounded backlog drains, then the stale link re-enters
  // through a fresh base at the head (the same path a kResync takes) —
  // never by replaying the unbounded middle.
  stall->SetStalled(false);
  rig.TrainAndCut(3);  // generation 14
  rig.ExpectReplicaByteIdentical(replica, "unstalled replica");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_EQ(stats.bases_applied, 2u);  // initial sync + post-stall rebase
  EXPECT_EQ(stats.resyncs_requested, 0u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
  const ReplicationSource::Stats after = rig.source()->stats();
  EXPECT_FALSE(after.replicas[0].stale);
  EXPECT_EQ(after.replicas[0].base_resyncs, 2u);
}

// ---------------------------------------------------------------------------
// Reconnect and liveness.
// ---------------------------------------------------------------------------

TEST(ReconnectTest, DeadLinkRedialsWithBackoffAndCatchesUpOnDeltas) {
  ReplicationSource::Options source_options;
  source_options.delta_history_generations = 8;
  ReplicationRig rig("cafe", 20.0, source_options);

  TransportPair pair = MakePipeTransport();
  ByteChannel* sever = pair.replica.get();
  std::atomic<uint32_t> dials{0};
  ReplicaManager::Options options;
  options.name = "redial_replica";
  options.reconnect_backoff_initial_us = 2000;
  options.reconnect = [&rig, &dials]()
      -> StatusOr<std::unique_ptr<ByteChannel>> {
    // First dial fails retriably (the "source still restarting" case): the
    // backoff loop must try again instead of giving up.
    if (dials.fetch_add(1, std::memory_order_acq_rel) == 0) {
      return Status::Unavailable("connection refused");
    }
    TransportPair fresh = MakePipeTransport();
    CAFE_RETURN_IF_ERROR(rig.source()->AddReplica(std::move(fresh.source)));
    return std::move(fresh.replica);
  };
  ReplicaManager* replica = rig.AddReplicaOnTransport(std::move(pair), options);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());
  rig.TrainAndCut(5);
  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(3, kWaitUs).ok());

  sever->Close();  // the link dies under the replica mid-run

  rig.TrainAndCut(5);
  rig.TrainAndCut(5);  // generations 4-5 ride the replacement link
  rig.ExpectReplicaByteIdentical(replica, "redialed replica");

  const ReplicaManager::Stats stats = replica->stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(dials.load(std::memory_order_acquire), 2u);
  // The rejoin handshake resumed the delta chain: no second base.
  EXPECT_EQ(stats.bases_applied, 1u);
  EXPECT_EQ(stats.deltas_applied, 4u);
  EXPECT_TRUE(stats.fatal.ok()) << stats.fatal.ToString();
}

TEST(LivenessTest, SourcePrunesSilentLinksWhileHeartbeatersStayAlive) {
  ReplicationSource::Options source_options;
  source_options.heartbeat_interval_us = 20000;
  source_options.liveness_timeout_us = 150000;
  ReplicationRig rig("cafe", 20.0, source_options);

  ReplicaManager::Options heartbeat_options;
  heartbeat_options.name = "hb_replica";
  heartbeat_options.heartbeat_interval_us = 20000;
  ReplicaManager* heartbeater =
      rig.AddReplicaOnTransport(MakePipeTransport(), heartbeat_options);
  ReplicaManager::Options silent_options;
  silent_options.name = "silent_replica";
  ReplicaManager* silent =
      rig.AddReplicaOnTransport(MakePipeTransport(), silent_options);

  rig.TrainAndCut(5);
  ASSERT_TRUE(heartbeater->WaitForGeneration(1, kWaitUs).ok());
  ASSERT_TRUE(silent->WaitForGeneration(1, kWaitUs).ok());

  // Idle past the liveness window: the silent replica acks nothing more,
  // so its link must be pruned; the heartbeater's stays up.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kWaitUs);
  ReplicationSource::Stats stats = rig.source()->stats();
  while (stats.links_pruned < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    stats = rig.source()->stats();
  }
  EXPECT_EQ(stats.links_pruned, 1u);
  ASSERT_EQ(stats.replicas.size(), 2u);
  EXPECT_TRUE(stats.replicas[0].alive);
  EXPECT_FALSE(stats.replicas[1].alive);
  // The live replica heard the source's heartbeats too.
  EXPECT_GT(heartbeater->stats().heartbeats_received, 0u);
}

TEST(LivenessTest, ReplicaWatchdogSeversASilentSourceAndRedials) {
  ReplicationRig rig("cafe", 20.0);  // source never heartbeats
  std::atomic<uint32_t> dials{0};
  ReplicaManager::Options options;
  options.name = "watchdog_replica";
  options.heartbeat_interval_us = 20000;
  options.liveness_timeout_us = 120000;
  options.reconnect_backoff_initial_us = 2000;
  options.reconnect = [&rig, &dials]()
      -> StatusOr<std::unique_ptr<ByteChannel>> {
    dials.fetch_add(1, std::memory_order_acq_rel);
    TransportPair fresh = MakePipeTransport();
    CAFE_RETURN_IF_ERROR(rig.source()->AddReplica(std::move(fresh.source)));
    return std::move(fresh.replica);
  };
  ReplicaManager* replica =
      rig.AddReplicaOnTransport(MakePipeTransport(), options);

  rig.TrainAndCut(5);
  ASSERT_TRUE(replica->WaitForGeneration(1, kWaitUs).ok());

  // The source goes silent (no cuts, no heartbeats): the replica's
  // watchdog must sever the half-dead link and redial on its own.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(kWaitUs);
  while (replica->stats().reconnects < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(replica->stats().reconnects, 1u);
  EXPECT_GE(dials.load(std::memory_order_acquire), 1u);

  // The replacement link carries the next generation.
  rig.TrainAndCut(5);
  rig.ExpectReplicaByteIdentical(replica, "watchdog redial");
  EXPECT_TRUE(replica->stats().fatal.ok());
}

// ---------------------------------------------------------------------------
// Stream-while-train: the full online pipeline with replicas attached.
// This is the concurrent TSan workload — trainer, rollout thread, serving
// workers, source reader threads, and two replica apply threads all live.
// ---------------------------------------------------------------------------

std::unique_ptr<SyntheticCtrDataset> MakeRolloutDataset() {
  SyntheticDatasetConfig config;
  config.name = "replication-test";
  config.field_cardinalities = {2000, 1500, 1000, 500};
  config.num_numerical = 2;
  config.num_samples = 6000;
  config.num_days = 3;
  config.seed = 77;
  auto data = SyntheticCtrDataset::Generate(config);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

TEST(ReplicatedPipelineTest, StreamWhileTrainReachesTheFinalGeneration) {
  auto data = MakeRolloutDataset();
  StoreFactoryContext context = MakeContext(20.0);
  context.embedding.total_features = data->layout().total_features();
  context.layout = data->layout();
  ModelConfig model_config;
  model_config.num_fields = data->num_fields();
  model_config.emb_dim = kDim;
  model_config.num_numerical = data->config().num_numerical;
  model_config.seed = 1234;

  OnlinePipelineOptions options;
  options.batch_size = 128;
  options.passes = 1;
  options.snapshot_interval = 8;
  options.incremental_snapshots = true;
  options.replica_count = 2;
  // Fresh the per-replica subdirs too: the pipeline writes each ledger
  // under <dir>/replica<i>, and a stale ledger would turn this cold join
  // into a restore.
  options.replica_durable_dir = FreshDir("cafe_pipeline_durable");
  FreshDir("cafe_pipeline_durable/replica0");
  FreshDir("cafe_pipeline_durable/replica1");
  options.replica_heartbeat_interval_us = 20000;
  options.server.num_workers = 2;
  options.server.max_batch = 64;
  options.server.max_wait_us = 100;
  options.num_clients = 2;
  options.request_size = 12;
  auto result = RunOnlinePipeline("cafe", context, "dlrm", model_config,
                                  *data, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->final_snapshot, nullptr);

  const uint64_t final_generation = result->final_snapshot->generation;
  EXPECT_EQ(result->replication_stats.head_generation, final_generation);
  EXPECT_TRUE(result->replication_stats.head_status.ok())
      << result->replication_stats.head_status.ToString();
  ASSERT_EQ(result->replica_stats.size(), 2u);
  for (size_t i = 0; i < result->replica_stats.size(); ++i) {
    const ReplicaManager::Stats& stats = result->replica_stats[i];
    EXPECT_EQ(stats.generation, final_generation) << "replica " << i;
    EXPECT_EQ(stats.train_step, result->final_snapshot->train_step)
        << "replica " << i;
    // The kHello races the first cut, so the base may land at any early
    // generation: assert the shape (one base, deltas from there) rather
    // than exact counts.
    EXPECT_EQ(stats.bases_applied, 1u) << "replica " << i;
    EXPECT_GE(stats.deltas_applied, 1u) << "replica " << i;
    EXPECT_EQ(stats.corrupt_frames, 0u) << "replica " << i;
    EXPECT_EQ(stats.gap_frames, 0u) << "replica " << i;
    EXPECT_EQ(stats.resyncs_requested, 0u) << "replica " << i;
    // Fresh durable dirs: this run is a cold join that leaves a ledger
    // behind, with no write failures along the way.
    EXPECT_EQ(stats.restores, 0u) << "replica " << i;
    EXPECT_EQ(stats.durable_persist_failures, 0u) << "replica " << i;
    EXPECT_TRUE(stats.fatal.ok()) << "replica " << i << ": "
                                  << stats.fatal.ToString();
  }
}

}  // namespace
}  // namespace cafe
