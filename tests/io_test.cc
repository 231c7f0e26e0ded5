// Framing edge cases for the low-level io::Writer/Reader pair — the format
// every checkpoint, snapshot payload, and replication frame is built on:
// zero-length payloads, the borrowing (non-owning) Reader constructor, and
// damage surfacing as a typed Status (fingerprint mismatch, truncation)
// rather than a crash or a partial install.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "io/checkpoint.h"
#include "io/serialize.h"
#include "train/store_factory.h"

namespace cafe {
namespace {

TEST(SerializeTest, ZeroLengthPayloadsRoundTrip) {
  io::Writer writer;
  writer.WriteString("");
  writer.WriteVec(std::vector<float>{});
  writer.WriteBytes(nullptr, 0);  // explicit empty write is a no-op
  writer.WriteU32(7);

  io::Reader reader(writer.Release());
  std::string s = "poison";
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, "");
  std::vector<float> v{1.0f, 2.0f};
  ASSERT_TRUE(reader.ReadVec(&v).ok());
  EXPECT_TRUE(v.empty());
  uint32_t tail = 0;
  ASSERT_TRUE(reader.ReadU32(&tail).ok());
  EXPECT_EQ(tail, 7u);
  EXPECT_EQ(reader.remaining(), 0u);

  // Reading zero bytes at the very end succeeds; one more byte does not.
  ASSERT_TRUE(reader.ReadBytes(nullptr, 0).ok());
  uint8_t byte = 0;
  EXPECT_EQ(reader.ReadU8(&byte).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, ReserveMakesRoomWithoutRegrowth) {
  io::Writer writer;
  writer.WriteU32(1);
  writer.Reserve(1000);  // 1000 bytes beyond what is already written
  const char* before = writer.buffer().data();
  for (uint64_t i = 0; i < 125; ++i) writer.WriteU64(i);
  EXPECT_EQ(writer.buffer().data(), before);  // never reallocated
  EXPECT_EQ(writer.size(), 1004u);
}

TEST(SerializeTest, FingerprintExtendsAcrossChunks) {
  std::string bytes;
  for (int i = 0; i < 1000; ++i) bytes.push_back(static_cast<char>(i * 37));
  const uint64_t whole = io::Fingerprint(bytes.data(), bytes.size());
  for (const size_t chunk : {size_t{1}, size_t{7}, size_t{999}}) {
    uint64_t state = io::kFingerprintBasis;
    for (size_t at = 0; at < bytes.size(); at += chunk) {
      state = io::FingerprintExtend(state, bytes.data() + at,
                                    std::min(chunk, bytes.size() - at));
    }
    EXPECT_EQ(state, whole) << "chunk " << chunk;
  }
  EXPECT_EQ(io::Fingerprint(nullptr, 0), io::kFingerprintBasis);
}

TEST(SerializeTest, EmptyBufferReader) {
  io::Reader reader{std::string()};
  EXPECT_EQ(reader.remaining(), 0u);
  ASSERT_TRUE(reader.Skip(0).ok());
  uint64_t v = 0;
  EXPECT_EQ(reader.ReadU64(&v).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, BorrowingReaderReadsInPlaceWithoutCopy) {
  io::Writer writer;
  writer.WriteU64(41);
  writer.WriteString("shared payload");
  const std::string bytes = writer.Release();

  // Two borrowing readers over the SAME buffer replay it independently —
  // the double-buffer publish path's contract (one delta payload, two
  // applications, zero copies).
  for (int pass = 0; pass < 2; ++pass) {
    io::Reader reader(&bytes);
    EXPECT_EQ(&reader.bytes(), &bytes);  // aliases, not a copy
    uint64_t v = 0;
    ASSERT_TRUE(reader.ReadU64(&v).ok());
    EXPECT_EQ(v, 41u);
    std::string s;
    ASSERT_TRUE(reader.ReadString(&s).ok());
    EXPECT_EQ(s, "shared payload");
    EXPECT_EQ(reader.remaining(), 0u);
  }
}

TEST(SerializeTest, TruncationIsTypedNotACrash) {
  io::Writer writer;
  writer.WriteVec(std::vector<double>{1.0, 2.0, 3.0});
  std::string bytes = writer.Release();
  bytes.resize(bytes.size() - 5);  // cut into the last element

  io::Reader reader(std::move(bytes));
  std::vector<double> v;
  EXPECT_EQ(reader.ReadVec(&v).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, HugeLengthPrefixRejectedNotAllocated) {
  // A corrupt length prefix near 2^64 must fail the bounds check, not wrap
  // the size arithmetic or ask resize() for exabytes.
  io::Writer writer;
  writer.WriteU64(std::numeric_limits<uint64_t>::max());
  writer.WriteU32(0xdeadbeef);

  io::Reader vec_reader(writer.buffer());
  std::vector<uint64_t> v;
  EXPECT_EQ(vec_reader.ReadVec(&v).code(), StatusCode::kOutOfRange);

  io::Reader str_reader(writer.buffer());
  std::string s;
  EXPECT_EQ(str_reader.ReadString(&s).code(), StatusCode::kOutOfRange);
}

TEST(SerializeTest, FingerprintDetectsEverySingleByteFlip) {
  io::Writer writer;
  writer.WriteString("fingerprint me");
  writer.WriteF32(3.5f);
  const std::string bytes = writer.buffer();
  const uint64_t clean = io::Fingerprint(bytes.data(), bytes.size());
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] ^= 0x01;
    EXPECT_NE(io::Fingerprint(damaged.data(), damaged.size()), clean)
        << "flip at byte " << i << " went undetected";
  }
}

class CheckpointDamageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::string(::testing::TempDir()) + "io_test_ckpt.bin";
    context_.embedding.total_features = 500;
    context_.embedding.dim = 4;
    context_.embedding.compression_ratio = 1.0;
    context_.embedding.seed = 42;
    auto store = MakeStore("full", context_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(store).value();
    std::vector<uint64_t> ids{1, 2, 3};
    std::vector<float> grads(ids.size() * 4, 0.25f);
    store_->ApplyGradientBatch(ids.data(), ids.size(), grads.data(), 0.1f);
    ASSERT_TRUE(io::SaveCheckpoint(path_, *store_).ok());
  }

  void TearDown() override { std::remove(path_.c_str()); }

  StatusOr<std::string> ReadFile() { return io::ReadFileToString(path_); }

  Status LoadIntoFresh() {
    auto fresh = MakeStore("full", context_);
    if (!fresh.ok()) return fresh.status();
    return io::LoadCheckpoint(path_, fresh->get());
  }

  std::string path_;
  StoreFactoryContext context_;
  std::unique_ptr<EmbeddingStore> store_;
};

TEST_F(CheckpointDamageTest, FlippedByteSurfacesAsInvalidArgument) {
  auto bytes = ReadFile();
  ASSERT_TRUE(bytes.ok());
  std::string damaged = *bytes;
  damaged[damaged.size() / 2] ^= 0x10;
  ASSERT_TRUE(io::WriteFileAtomic(path_, damaged).ok());

  const Status status = LoadIntoFresh();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("fingerprint mismatch"), std::string::npos)
      << status.ToString();
}

TEST_F(CheckpointDamageTest, TruncatedFileSurfacesAsTypedError) {
  auto bytes = ReadFile();
  ASSERT_TRUE(bytes.ok());
  // A truncated payload shifts the trailing fingerprint, so the damage is
  // caught BEFORE any state is installed; chopping into the trailer itself
  // is reported as truncation.
  for (const size_t keep : {bytes->size() - 9, bytes->size() - 60, size_t{4}}) {
    ASSERT_TRUE(io::WriteFileAtomic(path_, bytes->substr(0, keep)).ok());
    const Status status = LoadIntoFresh();
    EXPECT_FALSE(status.ok()) << "kept " << keep << " bytes";
    EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument ||
                status.code() == StatusCode::kOutOfRange)
        << status.ToString();
  }
}

}  // namespace
}  // namespace cafe
