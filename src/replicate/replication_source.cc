#include "replicate/replication_source.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "io/serialize.h"
#include "serve/double_buffer_publisher.h"

namespace cafe {
namespace replicate {
namespace {

uint64_t NowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

SharedFrame Share(std::string bytes) {
  return std::make_shared<const std::string>(std::move(bytes));
}

}  // namespace

ReplicationSource::ReplicationSource(SnapshotManager::FreshStoreFactory factory)
    : ReplicationSource(std::move(factory), Options()) {}

ReplicationSource::ReplicationSource(SnapshotManager::FreshStoreFactory factory,
                                     const Options& options)
    : factory_(std::move(factory)), options_(options) {
  CAFE_CHECK(factory_ != nullptr) << "replication source needs a store factory";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs_frames_ = registry.GetCounter("replicate.source.frames_sent_total");
  obs_bytes_ = registry.GetCounter("replicate.source.bytes_sent_total");
  obs_resyncs_ = registry.GetCounter("replicate.source.base_resyncs_total");
  obs_overflows_ =
      registry.GetCounter("replicate.source.queue_overflow_total");
  obs_head_generation_ = registry.GetGauge("replicate.source.head_generation");
  auto head = factory_();
  if (head.ok()) {
    head_ = std::move(head).value();
    if (head_ == nullptr) {
      head_status_ =
          Status::InvalidArgument("replication store factory returned null");
    }
  } else {
    head_status_ = head.status();
  }
  if (options_.heartbeat_interval_us > 0 || options_.liveness_timeout_us > 0) {
    maintenance_ = std::thread([this] { MaintenanceLoop(); });
  }
}

ReplicationSource::~ReplicationSource() { Shutdown(); }

SnapshotManager::PayloadObserver ReplicationSource::MakeObserver() {
  return [this](const SnapshotManager::BoundaryPayload& boundary) {
    Publish(boundary);
  };
}

Status ReplicationSource::AddReplica(std::unique_ptr<ByteChannel> channel) {
  if (channel == nullptr) {
    return Status::InvalidArgument("replication link needs a channel");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition("replication source is shut down");
  }
  auto link = std::make_unique<Link>();
  link->channel = std::move(channel);
  link->index = links_.size();
  link->last_recv_us = NowUs();
  const std::string replica_prefix =
      "replicate.replica" + std::to_string(link->index);
  const std::string link_prefix =
      "replicate.source.link" + std::to_string(link->index);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  link->lag_generations = registry.GetGauge(replica_prefix + ".lag_generations");
  link->lag_bytes = registry.GetGauge(replica_prefix + ".lag_bytes");
  link->queue_bytes_gauge = registry.GetGauge(link_prefix + ".send_queue_bytes");
  link->queue_frames_gauge =
      registry.GetGauge(link_prefix + ".send_queue_frames");
  Link* raw = link.get();
  link->reader = std::thread([this, raw] { ReaderLoop(raw); });
  link->sender = std::thread([this, raw] { SenderLoop(raw); });
  links_.push_back(std::move(link));
  return Status::OK();
}

void ReplicationSource::Publish(
    const SnapshotManager::BoundaryPayload& boundary) {
  // Encode the sidecar NOW: the boundary's pointers are only valid for
  // this call, while the queued entry may wait for an earlier generation.
  std::string aux;
  if (options_.ship_aux && boundary.payload != nullptr) {
    const bool has_dense = boundary.dense_params != nullptr &&
                           !boundary.dense_params->empty();
    if (has_dense || boundary.has_optimizer) {
      AuxState state;
      if (boundary.model_name != nullptr) state.model_name = *boundary.model_name;
      if (has_dense) state.dense_params = *boundary.dense_params;
      state.has_optimizer = boundary.has_optimizer;
      if (boundary.has_optimizer && boundary.optimizer_state != nullptr) {
        state.optimizer_state = *boundary.optimizer_state;
      }
      aux = EncodeAux(state);
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_ || !head_status_.ok() || boundary.payload == nullptr ||
      boundary.generation <= head_generation_) {
    return;
  }
  PendingEntry entry;
  entry.is_delta = boundary.is_delta;
  entry.payload = boundary.payload;
  entry.train_step = boundary.train_step;
  entry.aux = std::move(aux);
  pending_.emplace(boundary.generation, std::move(entry));
  DrainLocked();
}

void ReplicationSource::DrainLocked() {
  while (!pending_.empty()) {
    auto it = pending_.begin();
    const uint64_t generation = it->first;
    if (generation <= head_generation_) {
      pending_.erase(it);
      continue;
    }
    // Claimed generations are contiguous (a failed copy never claims one),
    // so anything beyond head+1 is just an earlier cutter that has not
    // reported yet — unless it is a base, which rebases from any state.
    if (generation != head_generation_ + 1 && it->second.is_delta) break;
    PendingEntry entry = std::move(it->second);
    pending_.erase(it);

    // Fold into the head store so a base for late joiners is always one
    // SaveState away.
    const Status status =
        ApplyPayload(head_.get(), entry.is_delta, *entry.payload);
    if (!status.ok()) {
      // The head diverged from the trainer: stop streaming rather than
      // ship frames a resync could not repair. stats() exposes the cause.
      head_status_ = status;
      return;
    }
    head_generation_ = generation;
    head_step_ = entry.train_step;
    ++generations_published_;
    obs_head_generation_->Set(static_cast<double>(head_generation_));

    // Every frame below is encoded at most once and shared read-only by
    // the history ring, the cached head base and all the queues that send
    // it. A base is always encoded (it becomes the head base every later
    // joiner at this head is sent); a delta with neither a ring nor a
    // caught-up link to read it is dropped unencoded.
    head_aux_frame_ =
        entry.aux.empty()
            ? nullptr
            : Share(EncodeFrame(FrameKind::kAux, generation, entry.train_step,
                                entry.aux));
    const bool keep_history =
        entry.is_delta && options_.delta_history_generations > 0;
    const bool fan_out =
        std::any_of(links_.begin(), links_.end(), [](const auto& link) {
          return link->alive && link->caught_up && !link->stale;
        });
    SharedFrame data;
    if (!entry.is_delta || keep_history || fan_out) {
      data = Share(EncodeFrame(
          entry.is_delta ? FrameKind::kDelta : FrameKind::kBase, generation,
          entry.train_step, *entry.payload));
    }
    head_base_frame_ = entry.is_delta ? nullptr : data;
    cumulative_bytes_ += kFrameOverheadBytes + entry.payload->size() +
                         (head_aux_frame_ ? head_aux_frame_->size() : 0);
    bytes_at_[generation] = cumulative_bytes_;
    while (bytes_at_.size() > 1024) bytes_at_.erase(bytes_at_.begin());

    // The history ring holds deltas contiguous up to the head; a base
    // publish resets it (catch-up across a base needs the base anyway).
    if (keep_history) {
      history_.push_back({generation, head_aux_frame_, data});
      while (history_.size() > options_.delta_history_generations) {
        history_.pop_front();
      }
    } else {
      history_.clear();
    }

    if (!fan_out) continue;
    for (auto& link : links_) {
      if (!link->alive || !link->caught_up || link->stale) continue;
      if (head_aux_frame_ != nullptr &&
          !EnqueueLocked(link.get(), head_aux_frame_, true)) {
        continue;  // went stale; the sender rebases once drained
      }
      EnqueueLocked(link.get(), data, true);
      UpdateLagLocked(link.get());
    }
  }
  // Wake senders: new frames may be queued, and a link waiting on "a head
  // exists" for its first base can proceed after the first publish.
  send_cv_.notify_all();
}

bool ReplicationSource::EnqueueLocked(Link* link, const SharedFrame& frame,
                                      bool is_data) {
  if (!link->alive) return false;
  // An empty queue always admits (a single frame above the watermark must
  // not wedge the link forever) — so queue memory is bounded by
  // max(watermark, one frame), not blocked at zero.
  const bool fits =
      link->send_queue.empty() ||
      (link->queued_bytes + frame->size() <= options_.send_queue_high_bytes &&
       link->send_queue.size() + 1 <= options_.send_queue_high_frames);
  if (!fits) {
    if (is_data && !link->stale) {
      // Crossing the watermark: stop enqueuing deltas for this link. The
      // queued backlog (bounded) still drains; the sender then re-enters
      // the link through the same rebase path a kResync takes.
      link->stale = true;
      link->needs_base = true;
      link->caught_up = false;
      ++link->queue_overflows;
      ++queue_overflows_;
      obs_overflows_->Add(1);
    }
    return false;
  }
  link->send_queue.push_back(frame);
  link->queued_bytes += frame->size();
  UpdateQueueGaugesLocked(link);
  return true;
}

void ReplicationSource::EnqueueForcedLocked(Link* link,
                                            const SharedFrame& frame) {
  link->queued_bytes += frame->size();
  link->send_queue.push_back(frame);
  UpdateQueueGaugesLocked(link);
}

void ReplicationSource::PrepareBaseLocked(Link* link) {
  if (head_generation_ < 1) {
    // Nothing published yet: the sender re-runs this after the first cut.
    link->needs_base = true;
    return;
  }
  link->needs_base = false;
  link->stale = false;
  if (head_base_frame_ == nullptr) {
    // A head reached through deltas is serialized now (a head published as
    // a base already has its frame); every later link rebased at this head
    // reuses the frame.
    io::Writer writer;
    const Status status = head_->SaveState(&writer);
    if (!status.ok()) {
      head_status_ = status;
      return;
    }
    head_base_frame_ = Share(EncodeFrame(FrameKind::kBase, head_generation_,
                                         head_step_, writer.buffer()));
  }
  if (head_aux_frame_ != nullptr) EnqueueForcedLocked(link, head_aux_frame_);
  EnqueueForcedLocked(link, head_base_frame_);
  link->caught_up = true;
  ++link->base_resyncs;
  ++base_resyncs_;
  obs_resyncs_->Add(1);
  UpdateLagLocked(link);
  send_cv_.notify_all();
}

bool ReplicationSource::HistoryCoversLocked(uint64_t generation) const {
  return options_.delta_history_generations > 0 && !history_.empty() &&
         generation < head_generation_ &&
         history_.front().generation <= generation + 1 &&
         history_.back().generation == head_generation_;
}

void ReplicationSource::UpdateLagLocked(Link* link) {
  const uint64_t acked = link->acked_generation;
  const uint64_t lag_gen =
      head_generation_ > acked ? head_generation_ - acked : 0;
  uint64_t lag_bytes = 0;
  const auto it = bytes_at_.find(acked);
  if (it != bytes_at_.end()) {
    lag_bytes = cumulative_bytes_ - it->second;
  } else if (acked < head_generation_) {
    // Ack older than the tracked window (or 0): everything is behind.
    lag_bytes = cumulative_bytes_;
  }
  link->lag_generations->Set(static_cast<double>(lag_gen));
  link->lag_bytes->Set(static_cast<double>(lag_bytes));
}

void ReplicationSource::UpdateQueueGaugesLocked(Link* link) {
  link->queue_bytes_gauge->Set(static_cast<double>(link->queued_bytes));
  link->queue_frames_gauge->Set(static_cast<double>(link->send_queue.size()));
}

void ReplicationSource::SenderLoop(Link* link) {
  while (true) {
    SharedFrame frame;
    {
      std::unique_lock<std::mutex> lock(mu_);
      send_cv_.wait(lock, [&] {
        return shutdown_ || !link->alive || !link->send_queue.empty() ||
               (link->needs_base && head_generation_ >= 1);
      });
      if (shutdown_ || !link->alive) return;
      if (link->send_queue.empty()) {
        // Stale-and-drained (or a pending hello/resync): re-enter through
        // a fresh base at the head, never by replaying a backlog.
        PrepareBaseLocked(link);
        if (link->send_queue.empty()) continue;  // head error; stay parked
      }
      frame = std::move(link->send_queue.front());
      link->send_queue.pop_front();
      link->queued_bytes -= frame->size();
      UpdateQueueGaugesLocked(link);
    }
    // The write happens OUTSIDE mu_: it may block on transport
    // backpressure, and Publish must never wait on a slow link. Other
    // senders may be writing the same shared frame; it is never mutated.
    const Status status = link->channel->Write(frame->data(), frame->size());
    std::lock_guard<std::mutex> lock(mu_);
    if (!status.ok()) {
      link->alive = false;
      send_cv_.notify_all();
      return;
    }
    link->bytes_sent += frame->size();
    ++frames_sent_;
    bytes_sent_ += frame->size();
    obs_frames_->Add(1);
    obs_bytes_->Add(frame->size());
  }
}

void ReplicationSource::ReaderLoop(Link* link) {
  FrameParser parser;
  char buf[4096];
  while (true) {
    auto n = link->channel->Read(buf, sizeof(buf));
    if (!n.ok() || *n == 0) break;
    parser.Feed(buf, *n);
    Frame frame;
    while (true) {
      const FrameParser::Result result = parser.Next(&frame);
      if (result == FrameParser::Result::kNeedMore) break;
      if (result == FrameParser::Result::kCorrupt) continue;
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_) return;
      link->last_recv_us = NowUs();
      switch (frame.kind) {
        case FrameKind::kHello: {
          link->caught_up = false;
          link->stale = false;
          link->acked_generation =
              std::max(link->acked_generation, frame.generation);
          if (frame.generation > 0 && frame.generation == head_generation_) {
            // Rejoiner already at the head: nothing to ship.
            link->needs_base = false;
            link->caught_up = true;
            ++link->delta_catchups;
            ++delta_catchups_;
            UpdateLagLocked(link);
          } else if (frame.generation > 0 &&
                     HistoryCoversLocked(frame.generation)) {
            // Serve only the deltas since its last applied generation.
            bool overflow = false;
            for (const HistoryEntry& entry : history_) {
              if (entry.generation <= frame.generation) continue;
              if (entry.aux != nullptr &&
                  !EnqueueLocked(link, entry.aux, true)) {
                overflow = true;
                break;
              }
              if (!EnqueueLocked(link, entry.data, true)) {
                overflow = true;
                break;
              }
            }
            if (!overflow) {
              link->needs_base = false;
              link->caught_up = true;
              ++link->delta_catchups;
              ++delta_catchups_;
            }
            // On overflow EnqueueLocked marked the link stale; the sender
            // rebases after the partial catch-up drains.
            UpdateLagLocked(link);
          } else {
            // Cold joiner, or older than the ring: full base.
            link->needs_base = true;
          }
          send_cv_.notify_all();
          break;
        }
        case FrameKind::kResync:
          link->caught_up = false;
          link->needs_base = true;
          send_cv_.notify_all();
          break;
        case FrameKind::kAck:
          link->acked_generation =
              std::max(link->acked_generation, frame.generation);
          UpdateLagLocked(link);
          break;
        case FrameKind::kHeartbeat:
          break;  // the last_recv_us stamp above is the point
        default:
          break;  // data frames never flow replica -> source
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  link->alive = false;
  send_cv_.notify_all();
}

void ReplicationSource::MaintenanceLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  uint64_t interval_us = options_.heartbeat_interval_us;
  if (interval_us == 0 || (options_.liveness_timeout_us > 0 &&
                           options_.liveness_timeout_us / 2 < interval_us)) {
    // Tick at least twice per liveness window so a dead link is pruned
    // within ~1.5x the timeout.
    if (options_.liveness_timeout_us > 0) {
      interval_us = std::max<uint64_t>(options_.liveness_timeout_us / 2, 1000);
    }
  }
  if (interval_us == 0) return;
  while (!shutdown_) {
    maintenance_cv_.wait_for(lock, std::chrono::microseconds(interval_us),
                             [&] { return shutdown_; });
    if (shutdown_) return;
    const uint64_t now = NowUs();
    SharedFrame heartbeat;  // one frame per tick, shared by every link
    for (auto& link : links_) {
      if (!link->alive) continue;
      if (options_.liveness_timeout_us > 0 &&
          now - link->last_recv_us > options_.liveness_timeout_us) {
        // Silent past the deadline: dead peer (or a half-open link). Close
        // wakes its reader (which marks it dead) and unblocks its sender.
        link->alive = false;
        link->channel->Close();
        ++links_pruned_;
        continue;
      }
      if (options_.heartbeat_interval_us > 0 && link->caught_up &&
          !link->stale) {
        if (heartbeat == nullptr) {
          heartbeat = Share(EncodeFrame(FrameKind::kHeartbeat,
                                        head_generation_, head_step_, ""));
        }
        EnqueueLocked(link.get(), heartbeat, false);
      }
    }
    send_cv_.notify_all();
  }
}

ReplicationSource::Stats ReplicationSource::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.head_generation = head_generation_;
  stats.generations_published = generations_published_;
  stats.frames_sent = frames_sent_;
  stats.bytes_sent = bytes_sent_;
  stats.base_resyncs = base_resyncs_;
  stats.queue_overflows = queue_overflows_;
  stats.delta_catchups = delta_catchups_;
  stats.links_pruned = links_pruned_;
  stats.history_generations = history_.size();
  stats.head_status = head_status_;
  stats.replicas.reserve(links_.size());
  for (const auto& link : links_) {
    ReplicaStats replica;
    replica.alive = link->alive;
    replica.acked_generation = link->acked_generation;
    replica.lag_generations = head_generation_ > link->acked_generation
                                  ? head_generation_ - link->acked_generation
                                  : 0;
    const auto it = bytes_at_.find(link->acked_generation);
    replica.lag_bytes = it != bytes_at_.end()
                            ? cumulative_bytes_ - it->second
                            : (link->acked_generation < head_generation_
                                   ? cumulative_bytes_
                                   : 0);
    replica.base_resyncs = link->base_resyncs;
    replica.bytes_sent = link->bytes_sent;
    replica.send_queue_bytes = link->queued_bytes;
    replica.send_queue_frames = link->send_queue.size();
    replica.queue_overflows = link->queue_overflows;
    replica.delta_catchups = link->delta_catchups;
    replica.stale = link->stale;
    stats.replicas.push_back(replica);
  }
  return stats;
}

uint64_t ReplicationSource::head_generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return head_generation_;
}

void ReplicationSource::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) return;
    shutdown_ = true;
    for (auto& link : links_) {
      link->channel->Close();
    }
    send_cv_.notify_all();
    maintenance_cv_.notify_all();
  }
  if (maintenance_.joinable()) maintenance_.join();
  for (auto& link : links_) {
    if (link->reader.joinable()) link->reader.join();
    if (link->sender.joinable()) link->sender.join();
  }
}

}  // namespace replicate
}  // namespace cafe
