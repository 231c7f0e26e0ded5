#include "replicate/fault_injector.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace cafe {
namespace replicate {

FaultyChannel::FaultyChannel(std::unique_ptr<ByteChannel> inner)
    : inner_(std::move(inner)) {}

FaultyChannel::~FaultyChannel() { Close(); }

void FaultyChannel::Arm(Action action, uint64_t in_frames, uint64_t arg) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_ = true;
  action_ = action;
  fire_at_ = frames_written_ + in_frames;
  arg_ = arg;
}

void FaultyChannel::SetStalled(bool stalled) {
  std::lock_guard<std::mutex> lock(mu_);
  stalled_ = stalled;
  if (!stalled) stall_cv_.notify_all();
}

uint64_t FaultyChannel::frames_written() const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_written_;
}

Status FaultyChannel::Write(const void* data, size_t size) {
  // Decide under the lock, emit outside it: the inner Write may block
  // (bounded pipe, stalled socket), and holding mu_ through it would wedge
  // Arm/SetStalled/Close.
  bool emit = true;
  const char* direct = nullptr;
  size_t direct_size = 0;
  std::string owned;
  std::string flush_held;
  bool has_flush = false;
  uint64_t delay_us = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    stall_cv_.wait(lock, [&] { return !stalled_ || closed_; });
    if (closed_) return Status::Unavailable("channel closed");
    const uint64_t index = frames_written_++;
    if (armed_ && index == fire_at_) {
      armed_ = false;
      switch (action_) {
        case Action::kDrop:
          emit = false;
          break;
        case Action::kTruncate: {
          size_t keep = arg_ != 0 ? static_cast<size_t>(arg_) : size / 2;
          keep = std::min(keep, size > 0 ? size - 1 : 0);
          owned.assign(static_cast<const char*>(data), keep);
          break;
        }
        case Action::kCorrupt:
          owned.assign(static_cast<const char*>(data), size);
          if (!owned.empty()) {
            owned[static_cast<size_t>(arg_) % owned.size()] ^=
                static_cast<char>(0xff);
          }
          break;
        case Action::kReorder:
          held_.assign(static_cast<const char*>(data), size);
          has_held_ = true;
          emit = false;
          break;
        case Action::kDelay:
          delay_us = arg_;
          direct = static_cast<const char*>(data);
          direct_size = size;
          break;
      }
    } else {
      direct = static_cast<const char*>(data);
      direct_size = size;
    }
    if (emit && has_held_) {
      flush_held = std::move(held_);
      has_held_ = false;
      has_flush = true;
    }
  }
  if (delay_us > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
  }
  if (emit) {
    const Status status = direct != nullptr
                              ? inner_->Write(direct, direct_size)
                              : inner_->Write(owned.data(), owned.size());
    if (!status.ok()) return status;
  }
  if (has_flush) {
    return inner_->Write(flush_held.data(), flush_held.size());
  }
  return Status::OK();
}

StatusOr<size_t> FaultyChannel::Read(void* out, size_t max) {
  return inner_->Read(out, max);
}

void FaultyChannel::Close() {
  std::string flush;
  bool has_flush = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    stalled_ = false;
    stall_cv_.notify_all();
    if (has_held_) {
      flush = std::move(held_);
      has_held_ = false;
      has_flush = true;
    }
  }
  if (has_flush) inner_->Write(flush.data(), flush.size());
  inner_->Close();
}

FaultInjector::Episode FaultInjector::Next() {
  Episode episode;
  episode.kind = static_cast<Kind>(
      rng_.Uniform(static_cast<uint64_t>(Kind::kKindCount)));
  ++counts_[static_cast<int>(episode.kind)];
  episode.target = static_cast<uint32_t>(rng_.Uniform(replica_count_));
  switch (episode.kind) {
    case Kind::kDrop:
    case Kind::kReorder:
      episode.in_frames = rng_.Uniform(3);
      break;
    case Kind::kCorrupt:
    case Kind::kTruncate:
      episode.in_frames = rng_.Uniform(3);
      episode.arg = rng_.Uniform(64);  // byte offset / truncate length seed
      break;
    case Kind::kStall:
      episode.arg = 1 + rng_.Uniform(2);  // cuts to stay stalled for
      break;
    case Kind::kKill:
      episode.arg = 1 + rng_.Uniform(3);  // cuts to stay dead for
      break;
    case Kind::kKindCount:
      break;  // unreachable
  }
  return episode;
}

const char* FaultKindName(FaultInjector::Kind kind) {
  switch (kind) {
    case FaultInjector::Kind::kDrop:
      return "drop";
    case FaultInjector::Kind::kCorrupt:
      return "corrupt";
    case FaultInjector::Kind::kTruncate:
      return "truncate";
    case FaultInjector::Kind::kReorder:
      return "reorder";
    case FaultInjector::Kind::kStall:
      return "stall";
    case FaultInjector::Kind::kKill:
      return "kill";
    case FaultInjector::Kind::kKindCount:
      break;
  }
  return "unknown";
}

}  // namespace replicate
}  // namespace cafe
