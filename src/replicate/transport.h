#ifndef CAFE_REPLICATE_TRANSPORT_H_
#define CAFE_REPLICATE_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace cafe {
namespace replicate {

/// A bidirectional byte stream endpoint: frames flow source -> replica,
/// acks/resync requests flow back. Implementations must support one writer
/// thread and one reader thread per endpoint concurrently (the source's
/// publish path writes while its ack-reader thread reads), and Close()
/// must unblock a Read() blocked on the peer.
///
/// Status contract (typed so callers can tell "retry" from "give up"):
///  - Unavailable: the link is down (peer closed, connection reset). A
///    reconnect — possibly after a backoff — may restore it.
///  - DeadlineExceeded: a bounded wait elapsed (Accept/Connect timeouts).
///  - ResourceExhausted: a bounded buffer refused the bytes; draining the
///    peer frees capacity. Surfaced by bounded senders, never by blocking
///    writes (those wait for capacity instead).
class ByteChannel {
 public:
  virtual ~ByteChannel() = default;

  /// Writes all `size` bytes or fails. The replication protocol calls this
  /// exactly once per frame, which is what fault injection counts. May
  /// block for peer capacity on bounded transports.
  virtual Status Write(const void* data, size_t size) = 0;

  /// Blocks until at least one byte is available (returning up to `max`),
  /// the peer closes (returns 0), or this end is Close()d (returns 0).
  virtual StatusOr<size_t> Read(void* out, size_t max) = 0;

  /// Idempotent; unblocks both directions on both ends.
  virtual void Close() = 0;
};

/// The two ends of one source<->replica connection.
struct TransportPair {
  std::unique_ptr<ByteChannel> source;
  std::unique_ptr<ByteChannel> replica;
};

/// In-process pipe: lock + condvar byte queues, no descriptors. With
/// `capacity_bytes == 0` (the default) writes never block, so fault
/// schedules (a FaultyChannel around the source end) replay exactly the
/// same under TSan and on any scheduler. With a nonzero capacity each
/// direction is a bounded buffer: Write blocks until the reader drains
/// space (real-socket backpressure for flow-control tests) or the lane
/// closes (-> Unavailable).
TransportPair MakePipeTransport(size_t capacity_bytes = 0);

/// Loopback TCP (127.0.0.1, ephemeral port, TCP_NODELAY): the same
/// protocol over a real socket — OS framing, partial reads, EPIPE on a
/// dead peer.
StatusOr<TransportPair> MakeTcpTransport();

/// Accepting side of a loopback TCP link that outlives any one connection:
/// a restarting replica reconnects to the same port. One Accept at a time.
class TcpListener {
 public:
  ~TcpListener();

  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()).
  static StatusOr<std::unique_ptr<TcpListener>> Bind(uint16_t port = 0);

  uint16_t port() const { return port_; }

  /// Waits up to `timeout_us` for one inbound connection.
  /// DeadlineExceeded if none arrives in time; Unavailable after Close().
  StatusOr<std::unique_ptr<ByteChannel>> Accept(uint64_t timeout_us);

  /// Unblocks a pending Accept. Idempotent.
  void Close();

 private:
  explicit TcpListener(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_;
  uint16_t port_;
  std::atomic<bool> closed_{false};
};

/// Connects to a TcpListener on 127.0.0.1:`port`. Unavailable when the
/// connection is refused or reset (nobody listening — retry after a
/// backoff); DeadlineExceeded when the handshake outlives `timeout_us`.
StatusOr<std::unique_ptr<ByteChannel>> TcpConnect(uint16_t port,
                                                  uint64_t timeout_us);

}  // namespace replicate
}  // namespace cafe

#endif  // CAFE_REPLICATE_TRANSPORT_H_
