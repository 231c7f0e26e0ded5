#ifndef CAFE_REPLICATE_FAULT_INJECTOR_H_
#define CAFE_REPLICATE_FAULT_INJECTOR_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "replicate/transport.h"

namespace cafe {
namespace replicate {

/// Wraps any ByteChannel and injects faults on the Write path: one frame per
/// Write by protocol contract, so a test can say "corrupt the 3rd frame"
/// and get exactly that. Faults are Arm()ed at any time, including between
/// chaos episodes while the link is live. Also models a slow consumer:
/// SetStalled(true) blocks every Write until unstalled (the channel stays
/// open, bytes just stop moving).
///
/// Thread-safe: Arm/SetStalled may race Write/Read/Close.
class FaultyChannel : public ByteChannel {
 public:
  enum class Action {
    kDrop,      ///< swallow the frame entirely (gap at the replica)
    kTruncate,  ///< deliver only the first `arg` bytes (default: half)
    kCorrupt,   ///< flip one byte at offset `arg` % size
    kReorder,   ///< hold the frame, deliver it AFTER the next one
    kDelay,     ///< deliver intact after sleeping `arg` microseconds
  };

  explicit FaultyChannel(std::unique_ptr<ByteChannel> inner);
  ~FaultyChannel() override;

  /// One-shot: the `in_frames`-th Write from now (0 = the next one) gets
  /// `action` applied with `arg`. Replaces any previously armed fault.
  void Arm(Action action, uint64_t in_frames, uint64_t arg = 0);

  /// While stalled, Write blocks (frames queue in the CALLER, not here).
  /// Unstalling releases blocked writers.
  void SetStalled(bool stalled);

  /// Total Write() calls observed (fault scheduling feedback for tests).
  uint64_t frames_written() const;

  Status Write(const void* data, size_t size) override;
  StatusOr<size_t> Read(void* out, size_t max) override;
  void Close() override;

 private:
  std::unique_ptr<ByteChannel> inner_;
  mutable std::mutex mu_;
  std::condition_variable stall_cv_;
  bool stalled_ = false;
  bool closed_ = false;
  bool armed_ = false;
  Action action_ = Action::kDrop;
  uint64_t fire_at_ = 0;  // absolute frame index the armed fault fires at
  uint64_t arg_ = 0;
  uint64_t frames_written_ = 0;
  std::string held_;  // kReorder hold-back (sent after the next frame)
  bool has_held_ = false;
};

/// A seeded generator of chaos episodes: each Next() picks one fault class
/// and small parameters. The soak test applies the episode to a live
/// replication rig and asserts byte-identical convergence afterwards.
/// Deterministic for a fixed seed.
class FaultInjector {
 public:
  enum class Kind {
    kDrop = 0,
    kCorrupt,
    kTruncate,
    kReorder,
    kStall,    ///< slow consumer: stall the link for `arg` cuts, then drain
    kKill,     ///< kill the replica process; restart it after `arg` cuts
    kKindCount,
  };

  struct Episode {
    Kind kind = Kind::kDrop;
    uint64_t in_frames = 0;  ///< transport faults: fire this many writes out
    uint64_t arg = 0;        ///< corrupt offset / stall length / kill length
    uint32_t target = 0;     ///< which replica link to hit
  };

  explicit FaultInjector(uint64_t seed, uint32_t replica_count)
      : rng_(seed), replica_count_(replica_count) {}

  Episode Next();

  /// Episodes generated so far for `kind` (soak coverage assertion).
  uint64_t count(Kind kind) const {
    return counts_[static_cast<int>(kind)];
  }

 private:
  Rng rng_;
  uint32_t replica_count_;
  uint64_t counts_[static_cast<int>(Kind::kKindCount)] = {};
};

const char* FaultKindName(FaultInjector::Kind kind);

}  // namespace replicate
}  // namespace cafe

#endif  // CAFE_REPLICATE_FAULT_INJECTOR_H_
