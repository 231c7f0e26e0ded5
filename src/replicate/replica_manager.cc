#include "replicate/replica_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "io/serialize.h"

namespace cafe {
namespace replicate {
namespace {

/// Channel read size. Large reads keep a multi-megabyte base to a few
/// hundred syscalls; the parser hashes each chunk as it is buffered.
constexpr size_t kReadChunkBytes = 256 << 10;

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ReplicaManager::ReplicaManager(SnapshotManager::FreshStoreFactory factory,
                               std::unique_ptr<ByteChannel> channel)
    : ReplicaManager(std::move(factory), std::move(channel), Options()) {}

ReplicaManager::ReplicaManager(SnapshotManager::FreshStoreFactory factory,
                               std::unique_ptr<ByteChannel> channel,
                               const Options& options)
    : options_(options),
      publisher_(std::move(factory), "", options.reclaim_wait_us),
      channel_(std::move(channel)) {
  CAFE_CHECK(channel_ != nullptr) << "replica manager needs a channel";
  jitter_state_ = options_.reconnect_seed;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const std::string prefix = "replicate." + options_.name;
  obs_generation_ = registry.GetGauge(prefix + ".generation");
  obs_corrupt_ = registry.GetCounter(prefix + ".corrupt_frames_total");
  obs_gaps_ = registry.GetCounter(prefix + ".gap_frames_total");
  obs_resyncs_ = registry.GetCounter(prefix + ".resyncs_total");
  obs_bytes_applied_ = registry.GetCounter(prefix + ".bytes_applied_total");
  obs_reconnects_ = registry.GetCounter(prefix + ".reconnects_total");
}

ReplicaManager::~ReplicaManager() { Shutdown(); }

Status ReplicaManager::Start() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition("replica manager already started");
    }
    if (shutdown_) {
      return Status::FailedPrecondition("replica manager is shut down");
    }
    started_ = true;
  }
  if (!options_.durable_dir.empty()) {
    durable_ = std::make_unique<DurableReplicaLog>(options_.durable_dir);
    const Status init = durable_->Init();
    if (!init.ok()) {
      durable_.reset();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.durable_persist_failures;
    } else {
      // Serving resumes from the ledger BEFORE the link carries a byte.
      RestoreFromDurable();
    }
  }
  // Announce with the restored generation (0 = cold join, source sends a
  // base; G>0 = rejoin, source ships only the deltas since G). Sent BEFORE
  // the apply thread exists; afterwards all writes serialize on send_mu_.
  SendControl(FrameKind::kHello, awaiting_base_ ? 0 : current_generation_);
  last_recv_us_.store(NowUs(), std::memory_order_relaxed);
  apply_thread_ = std::thread([this] { ApplyLoop(); });
  if (options_.heartbeat_interval_us > 0 || options_.liveness_timeout_us > 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  return Status::OK();
}

void ReplicaManager::SendControl(FrameKind kind, uint64_t generation) {
  // A write failure means the link died; the reader sees EOF and takes the
  // reconnect path — nothing useful to do with the status here.
  const std::string bytes = EncodeFrame(kind, generation, 0, "");
  std::shared_ptr<ByteChannel> channel;
  {
    std::lock_guard<std::mutex> lock(channel_mu_);
    channel = channel_;
  }
  std::lock_guard<std::mutex> lock(send_mu_);
  (void)channel->Write(bytes.data(), bytes.size());
}

void ReplicaManager::EnterResync(const char* why) {
  (void)why;
  if (awaiting_base_) return;  // poison once, resync once
  awaiting_base_ = true;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.resyncs_requested;
  }
  obs_resyncs_->Add(1);
  SendControl(FrameKind::kResync, current_generation_);
}

void ReplicaManager::RestoreFromDurable() {
  auto restored = durable_->Load();
  if (!restored.ok() || restored->generation == 0) return;  // cold start
  for (Frame& frame : restored->frames) {
    if (frame.kind == FrameKind::kAux) {
      AuxState aux;
      if (DecodeAux(frame.payload, &aux).ok()) {
        aux_ = std::move(aux);
        aux_generation_ = frame.generation;
        have_aux_ = true;
      }
      continue;
    }
    publisher_.Enqueue(
        frame.generation, frame.kind == FrameKind::kDelta,
        std::make_shared<const std::string>(std::move(frame.payload)));
  }
  const Status status = PublishGeneration(
      restored->generation, restored->train_step, &Stats::restores);
  if (!status.ok()) {
    // The ledger does not fit this factory's stores (config changed under
    // us, most likely). Reset everything for a clean cold join — the
    // source's base will overwrite the ledger too.
    publisher_.Reset();
    have_aux_ = false;
    current_generation_ = 0;
    return;
  }
  awaiting_base_ = false;
  std::lock_guard<std::mutex> lock(mu_);
  stats_.restored_generation = restored->generation;
}

void ReplicaManager::PersistFrame(const Frame& frame) {
  if (durable_ == nullptr) return;
  Status status;
  switch (frame.kind) {
    case FrameKind::kBase:
      status = durable_->AppendBase(frame);
      break;
    case FrameKind::kDelta:
      status = durable_->AppendDelta(frame);
      break;
    case FrameKind::kAux:
      status = durable_->AppendAux(frame);
      break;
    default:
      return;
  }
  if (!status.ok()) {
    // Replication keeps going; rejoin just degrades to whatever chain
    // survived (worst case a full base from the source).
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.durable_persist_failures;
  }
}

void ReplicaManager::MaybeCompactDurable(uint64_t generation,
                                         uint64_t train_step) {
  if (durable_ == nullptr ||
      durable_->delta_count() < options_.durable_compact_after_deltas) {
    return;
  }
  // Fold the delta tail into one base from the buffer just published (the
  // apply thread owns its mutations; concurrent serving reads are fine).
  const EmbeddingStore* serving = publisher_.serving();
  if (serving == nullptr) return;
  io::Writer writer;
  Frame base;
  base.kind = FrameKind::kBase;
  base.generation = generation;
  base.train_step = train_step;
  Status status = serving->SaveState(&writer);
  if (status.ok()) {
    base.payload = writer.Release();
    status = durable_->AppendBase(base);
  }
  if (!status.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.durable_persist_failures;
  }
}

void ReplicaManager::ApplyLoop() {
  Status fatal;
  while (true) {
    fatal = DrainStream();
    if (!fatal.ok()) break;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) break;
    }
    if (!options_.reconnect) break;
    if (!ReconnectWithBackoff()) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!fatal.ok() && stats_.fatal.ok()) stats_.fatal = fatal;
  stream_done_ = true;
  cv_.notify_all();
}

Status ReplicaManager::DrainStream() {
  // The channel only changes between DrainStream invocations (the apply
  // thread itself swaps it in ReconnectWithBackoff), but copy it under the
  // pointer lock so the grab is race-free against stats readers.
  std::shared_ptr<ByteChannel> channel;
  {
    std::lock_guard<std::mutex> lock(channel_mu_);
    channel = channel_;
  }
  FrameParser parser;
  std::vector<char> buf(kReadChunkBytes);
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return Status::OK();
    }
    auto n = channel->Read(buf.data(), buf.size());
    if (!n.ok() || *n == 0) return Status::OK();
    last_recv_us_.store(NowUs(), std::memory_order_relaxed);
    parser.Feed(buf.data(), *n);
    Frame frame;
    while (true) {
      const FrameParser::Result result = parser.Next(&frame);
      if (result == FrameParser::Result::kNeedMore) break;
      if (result == FrameParser::Result::kCorrupt) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.corrupt_frames;
        }
        obs_corrupt_->Add(1);
        EnterResync("corrupt or truncated frame");
        continue;
      }
      CAFE_RETURN_IF_ERROR(HandleFrame(std::move(frame)));
    }
  }
}

bool ReplicaManager::ReconnectWithBackoff() {
  uint64_t backoff = std::max<uint64_t>(options_.reconnect_backoff_initial_us,
                                        1);
  for (uint32_t attempt = 0; attempt < options_.reconnect_max_attempts;
       ++attempt) {
    {
      // Jittered exponential backoff (backoff * [1, 1.5)): a fleet of
      // replicas dropped by the same source failure must not redial in
      // lockstep. Interruptible by Shutdown.
      jitter_state_ = SplitMix64(jitter_state_);
      const uint64_t wait_us = backoff + jitter_state_ % (backoff / 2 + 1);
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::microseconds(wait_us),
                       [&] { return shutdown_; })) {
        return false;
      }
    }
    auto dial = options_.reconnect();
    if (dial.ok()) {
      {
        std::lock_guard<std::mutex> lock(channel_mu_);
        channel_ = std::move(dial).value();
      }
      // Fresh link, fresh liveness window — a stale stamp here would let
      // the watchdog kill the link we just built.
      last_recv_us_.store(NowUs(), std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.reconnects;
      }
      obs_reconnects_->Add(1);
      // The rejoin handshake: either resume the delta chain where we
      // stopped, or ask for a base if we are poisoned/cold.
      SendControl(FrameKind::kHello,
                  awaiting_base_ ? 0 : current_generation_);
      return true;
    }
    const StatusCode code = dial.status().code();
    if (code != StatusCode::kUnavailable &&
        code != StatusCode::kDeadlineExceeded) {
      return false;  // not a retriable dial failure
    }
    backoff = std::min(backoff * 2, options_.reconnect_backoff_max_us);
  }
  return false;
}

void ReplicaManager::WatchdogLoop() {
  uint64_t interval_us = options_.heartbeat_interval_us;
  if (options_.liveness_timeout_us > 0) {
    const uint64_t check_us =
        std::max<uint64_t>(options_.liveness_timeout_us / 2, 1000);
    interval_us = interval_us > 0 ? std::min(interval_us, check_us) : check_us;
  }
  if (interval_us == 0) return;
  while (true) {
    uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_for(lock, std::chrono::microseconds(interval_us),
                       [&] { return shutdown_; })) {
        return;
      }
      generation = stats_.generation;
    }
    if (options_.heartbeat_interval_us > 0) {
      SendControl(FrameKind::kHeartbeat, generation);
    }
    if (options_.liveness_timeout_us > 0) {
      const uint64_t now = NowUs();
      const uint64_t last = last_recv_us_.load(std::memory_order_relaxed);
      if (now > last && now - last > options_.liveness_timeout_us) {
        // A dead source and a half-open link look identical: silence.
        // Sever the link; the apply thread's Read unblocks and takes the
        // reconnect path. Close without send_mu_ — a heartbeat Write
        // blocked on the dead link is exactly what Close must unblock.
        // Reset the stamp so we do not re-sever the replacement link
        // before it produces a byte.
        std::shared_ptr<ByteChannel> channel;
        {
          std::lock_guard<std::mutex> lock(channel_mu_);
          channel = channel_;
        }
        channel->Close();
        last_recv_us_.store(now, std::memory_order_relaxed);
      }
    }
  }
}

Status ReplicaManager::HandleFrame(Frame frame) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.frames_received;
  }
  switch (frame.kind) {
    case FrameKind::kAux: {
      AuxState aux;
      const Status status = DecodeAux(frame.payload, &aux);
      if (!status.ok()) {
        // Fingerprint-valid but undecodable: treat like wire damage.
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.corrupt_frames;
        obs_corrupt_->Add(1);
        return Status::OK();
      }
      PersistFrame(frame);
      aux_ = std::move(aux);
      aux_generation_ = frame.generation;
      have_aux_ = true;
      return Status::OK();
    }
    case FrameKind::kBase: {
      // A base rebases from ANY state. Accept a base AT the current
      // generation only to clear a poison (the source had nothing newer).
      if (frame.generation < current_generation_ ||
          (frame.generation == current_generation_ && !awaiting_base_)) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.stale_skipped;
        return Status::OK();
      }
      PersistFrame(frame);
      publisher_.Enqueue(
          frame.generation, /*is_delta=*/false,
          std::make_shared<const std::string>(std::move(frame.payload)));
      CAFE_RETURN_IF_ERROR(PublishGeneration(frame.generation, frame.train_step,
                                             &Stats::bases_applied));
      awaiting_base_ = false;
      SendControl(FrameKind::kAck, frame.generation);
      return Status::OK();
    }
    case FrameKind::kDelta: {
      if (awaiting_base_) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.poisoned_skipped;
        return Status::OK();
      }
      if (frame.generation <= current_generation_) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.stale_skipped;
        return Status::OK();
      }
      if (frame.generation != current_generation_ + 1) {
        // A frame upstream never arrived: the delta chain is broken and
        // only a rebase can repair it.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.gap_frames;
        }
        obs_gaps_->Add(1);
        EnterResync("generation gap (dropped frame)");
        return Status::OK();
      }
      PersistFrame(frame);
      const uint64_t train_step = frame.train_step;
      publisher_.Enqueue(
          frame.generation, /*is_delta=*/true,
          std::make_shared<const std::string>(std::move(frame.payload)));
      CAFE_RETURN_IF_ERROR(PublishGeneration(frame.generation, train_step,
                                             &Stats::deltas_applied));
      SendControl(FrameKind::kAck, frame.generation);
      MaybeCompactDurable(frame.generation, train_step);
      return Status::OK();
    }
    case FrameKind::kHeartbeat: {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.heartbeats_received;
      return Status::OK();
    }
    default:
      return Status::OK();  // control frames never flow source -> replica
  }
}

Status ReplicaManager::PublishGeneration(uint64_t generation,
                                         uint64_t train_step,
                                         uint64_t Stats::*applied) {
  auto snapshot = std::make_shared<ServingSnapshot>();
  DoubleBufferPublisher::PublishResult published;
  // A fingerprint-valid frame that fails to APPLY is not wire damage — a
  // resync would replay the same bytes. Configuration mismatch between
  // source and replica factories; stop for good.
  CAFE_RETURN_IF_ERROR(
      publisher_.Publish(generation, snapshot.get(), &published));
  snapshot->generation = generation;
  snapshot->train_step = train_step;
  if (have_aux_ && aux_generation_ == generation) {
    snapshot->model_name = std::move(aux_.model_name);
    snapshot->dense_params = std::move(aux_.dense_params);
    snapshot->has_optimizer = aux_.has_optimizer;
    snapshot->optimizer_state = std::move(aux_.optimizer_state);
    have_aux_ = false;
  }

  current_generation_ = generation;
  obs_generation_->Set(static_cast<double>(generation));
  obs_bytes_applied_->Add(published.apply_bytes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (swappable_ == nullptr) {
      swappable_ = std::make_unique<SwappableStore>(std::move(snapshot));
    } else {
      swappable_->Install(std::move(snapshot));
    }
    stats_.generation = generation;
    stats_.train_step = train_step;
    stats_.bytes_applied += published.apply_bytes;
    if (published.retired) ++stats_.retired_buffers;
    ++(stats_.*applied);
    cv_.notify_all();
  }
  return Status::OK();
}

Status ReplicaManager::WaitForGeneration(uint64_t generation,
                                         uint64_t timeout_us) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::microseconds(timeout_us), [&] {
    return stats_.generation >= generation || stream_done_;
  });
  if (stats_.generation >= generation) return Status::OK();
  if (!stats_.fatal.ok()) return stats_.fatal;
  if (stream_done_) {
    return Status::FailedPrecondition(
        "replication stream ended before generation " +
        std::to_string(generation));
  }
  return Status::DeadlineExceeded("replica did not reach generation " +
                                  std::to_string(generation) +
                                  " before the deadline");
}

SwappableStore* ReplicaManager::swappable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swappable_.get();
}

uint64_t ReplicaManager::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_.generation;
}

ReplicaManager::Stats ReplicaManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void ReplicaManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    cv_.notify_all();  // unblock a backoff wait / the watchdog tick
  }
  {
    // Close WITHOUT send_mu_: a Write blocked on backpressure holds it,
    // and this Close is what unblocks that Write.
    std::shared_ptr<ByteChannel> channel;
    {
      std::lock_guard<std::mutex> lock(channel_mu_);
      channel = channel_;
    }
    channel->Close();
  }
  if (apply_thread_.joinable()) apply_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
}

}  // namespace replicate
}  // namespace cafe
