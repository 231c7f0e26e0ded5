#include "replicate/transport.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <mutex>
#include <string>
#include <utility>

namespace cafe {
namespace replicate {
namespace {

/// One direction of a pipe. `capacity == 0` means unbounded (writes never
/// block); otherwise Append waits for the reader to drain space, which is
/// the backpressure the flow-control tests lean on. Both endpoints hold the
/// lane via shared_ptr so either side may be destroyed first.
///
/// Unread bytes are data[head, data.size()). Reads advance `head` and the
/// dead prefix is compacted only once it dominates (as FrameParser does),
/// so draining an n-byte frame costs O(n), not O(n^2).
struct PipeLane {
  explicit PipeLane(size_t capacity_bytes) : capacity(capacity_bytes) {}

  size_t unread() const { return data.size() - head; }

  /// Copies up to `max` unread bytes out. Caller holds mu.
  size_t Take(void* out, size_t max) {
    const size_t n = std::min(max, unread());
    std::memcpy(out, data.data() + head, n);
    head += n;
    if (head == data.size()) {
      data.clear();
      head = 0;
    } else if (head > 4096 && head >= data.size() / 2) {
      data.erase(0, head);
      head = 0;
    }
    return n;
  }

  const size_t capacity;
  std::mutex mu;
  std::condition_variable cv;
  std::string data;
  size_t head = 0;
  bool closed = false;

  /// Blocks until the bytes fit (an oversized write goes through alone once
  /// the lane drains empty) or the lane closes. Returns false iff closed.
  bool Append(const void* bytes, size_t size) {
    std::unique_lock<std::mutex> lock(mu);
    if (capacity != 0) {
      cv.wait(lock, [&] {
        return closed || unread() + size <= capacity ||
               (unread() == 0 && size > capacity);
      });
    }
    if (closed) return false;
    data.append(static_cast<const char*>(bytes), size);
    cv.notify_all();
    return true;
  }

  void Close() {
    std::lock_guard<std::mutex> lock(mu);
    closed = true;
    cv.notify_all();
  }
};

class PipeChannel : public ByteChannel {
 public:
  PipeChannel(std::shared_ptr<PipeLane> out, std::shared_ptr<PipeLane> in)
      : out_(std::move(out)), in_(std::move(in)) {}

  ~PipeChannel() override { Close(); }

  Status Write(const void* data, size_t size) override {
    if (!out_->Append(data, size)) return Status::Unavailable("pipe closed");
    return Status::OK();
  }

  StatusOr<size_t> Read(void* out, size_t max) override {
    if (max == 0) return size_t{0};
    std::unique_lock<std::mutex> lock(in_->mu);
    in_->cv.wait(lock, [&] { return in_->unread() != 0 || in_->closed; });
    if (in_->unread() == 0) return size_t{0};  // closed and drained
    const size_t n = in_->Take(out, max);
    in_->cv.notify_all();  // a bounded lane's writer may be capacity-blocked
    return n;
  }

  void Close() override {
    out_->Close();
    in_->Close();
  }

 private:
  std::shared_ptr<PipeLane> out_;
  std::shared_ptr<PipeLane> in_;
};

class TcpChannel : public ByteChannel {
 public:
  explicit TcpChannel(int fd) : fd_(fd) {}
  ~TcpChannel() override {
    Close();
    // The fd is released only here: the owner destroys the channel after
    // joining every thread that touches it, whereas Close() may run while
    // another thread is still blocked in recv on this fd — closing there
    // would race the kernel fd table (and could hand a recycled fd to the
    // reader).
    ::close(fd_);
  }

  Status Write(const void* data, size_t size) override {
    const char* p = static_cast<const char*>(data);
    size_t sent = 0;
    while (sent < size) {
      const ssize_t n = ::send(fd_, p + sent, size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Unavailable(std::string("tcp send failed: ") +
                                   std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  StatusOr<size_t> Read(void* out, size_t max) override {
    while (true) {
      const ssize_t n = ::recv(fd_, out, max, 0);
      if (n >= 0) return static_cast<size_t>(n);
      if (errno == EINTR) continue;
      if (closed_.load(std::memory_order_acquire)) return size_t{0};
      return Status::Unavailable(std::string("tcp recv failed: ") +
                                 std::strerror(errno));
    }
  }

  void Close() override {
    if (closed_.exchange(true, std::memory_order_acq_rel)) return;
    ::shutdown(fd_, SHUT_RDWR);  // unblocks a peer (or own) blocked recv
  }

 private:
  int fd_;
  std::atomic<bool> closed_{false};
};

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

TransportPair MakePipeTransport(size_t capacity_bytes) {
  // source -> replica
  auto forward = std::make_shared<PipeLane>(capacity_bytes);
  // replica -> source: control frames are tiny; keep it unbounded so a
  // capacity meant for data frames can't deadlock ack/hello traffic.
  auto backward = std::make_shared<PipeLane>(0);
  TransportPair pair;
  pair.source = std::make_unique<PipeChannel>(forward, backward);
  pair.replica = std::make_unique<PipeChannel>(backward, forward);
  return pair;
}

TcpListener::~TcpListener() {
  Close();
  ::close(fd_);
}

StatusOr<std::unique_ptr<TcpListener>> TcpListener::Bind(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("tcp listener: socket() failed");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 8) < 0) {
    ::close(fd);
    return Status::Unavailable("tcp listener: bind/listen failed on port " +
                               std::to_string(port));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    ::close(fd);
    return Status::Internal("tcp listener: getsockname failed");
  }
  return std::unique_ptr<TcpListener>(
      new TcpListener(fd, ntohs(addr.sin_port)));
}

StatusOr<std::unique_ptr<ByteChannel>> TcpListener::Accept(
    uint64_t timeout_us) {
  // Poll in short slices so a concurrent Close() is noticed promptly even
  // on platforms where shutdown() on a listening socket doesn't wake poll.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout_us);
  while (true) {
    if (closed_.load(std::memory_order_acquire)) {
      return Status::Unavailable("tcp listener closed");
    }
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded("tcp accept timed out after " +
                                      std::to_string(timeout_us) + "us");
    }
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    struct pollfd pfd{};
    pfd.fd = fd_;
    pfd.events = POLLIN;
    const int slice_ms =
        static_cast<int>(std::min<int64_t>(remaining.count() + 1, 50));
    const int ready = ::poll(&pfd, 1, slice_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("tcp accept poll failed: ") +
                              std::strerror(errno));
    }
    if (ready == 0) continue;
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (closed_.load(std::memory_order_acquire)) {
        return Status::Unavailable("tcp listener closed");
      }
      return Status::Unavailable(std::string("tcp accept failed: ") +
                                 std::strerror(errno));
    }
    SetNoDelay(conn);
    return std::unique_ptr<ByteChannel>(new TcpChannel(conn));
  }
}

void TcpListener::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) return;
  ::shutdown(fd_, SHUT_RDWR);
}

StatusOr<std::unique_ptr<ByteChannel>> TcpConnect(uint16_t port,
                                                  uint64_t timeout_us) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("tcp connect: socket() failed");
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    const int saved = errno;
    ::close(fd);
    return Status::Unavailable(std::string("tcp connect failed: ") +
                               std::strerror(saved));
  }
  struct pollfd pfd{};
  pfd.fd = fd;
  pfd.events = POLLOUT;
  const int timeout_ms = static_cast<int>(
      std::min<uint64_t>(timeout_us / 1000 + 1, 1u << 30));
  int ready;
  do {
    ready = ::poll(&pfd, 1, timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready <= 0) {
    ::close(fd);
    return Status::DeadlineExceeded("tcp connect timed out after " +
                                    std::to_string(timeout_us) + "us");
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) < 0 || err != 0) {
    ::close(fd);
    return Status::Unavailable(std::string("tcp connect failed: ") +
                               std::strerror(err != 0 ? err : errno));
  }
  ::fcntl(fd, F_SETFL, flags);  // back to blocking for the channel
  SetNoDelay(fd);
  return std::unique_ptr<ByteChannel>(new TcpChannel(fd));
}

StatusOr<TransportPair> MakeTcpTransport() {
  auto listener_or = TcpListener::Bind(0);
  if (!listener_or.ok()) return listener_or.status();
  std::unique_ptr<TcpListener> listener = std::move(listener_or).value();

  // Loopback connect completes against the listen backlog without a
  // concurrent accept, so this stays single-threaded.
  auto client_or = TcpConnect(listener->port(), /*timeout_us=*/2'000'000);
  if (!client_or.ok()) return client_or.status();
  auto server_or = listener->Accept(/*timeout_us=*/2'000'000);
  if (!server_or.ok()) return server_or.status();

  TransportPair pair;
  pair.source = std::move(server_or).value();
  pair.replica = std::move(client_or).value();
  return pair;
}

}  // namespace replicate
}  // namespace cafe
