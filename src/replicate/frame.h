#ifndef CAFE_REPLICATE_FRAME_H_
#define CAFE_REPLICATE_FRAME_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "io/serialize.h"

namespace cafe {
namespace replicate {

/// Wire frame layout (io::Writer format — little-endian fixed-width):
///
///   offset  size  field
///   ------  ----  -----
///        0     4  magic        0x45464143 ("CAFE" on the wire)
///        4     1  kind         FrameKind
///        5     8  generation   snapshot generation the frame belongs to
///       13     8  train_step   trainer step the state was copied at
///       21     8  payload_size bytes of payload that follow
///       29     n  payload      kind-specific (store bytes, aux sidecar, …)
///   29 + n     8  fingerprint  64-bit FNV-1a over ALL preceding frame
///                              bytes (header + payload)
///
/// The trailing fingerprint is what makes the stream self-healing: a
/// corrupted or truncated frame fails verification instead of installing
/// divergent state, and the parser re-locks onto the next magic.
constexpr uint32_t kFrameMagic = 0x45464143;
constexpr size_t kFrameHeaderBytes = 4 + 1 + 8 + 8 + 8;
constexpr size_t kFrameOverheadBytes = kFrameHeaderBytes + 8;
/// Payloads above this are rejected as corrupt length prefixes rather than
/// buffered (a flipped bit in payload_size must not ask for exabytes).
constexpr uint64_t kMaxFramePayloadBytes = 1ull << 31;

enum class FrameKind : uint8_t {
  /// Full SaveState payload for `generation` (initial sync, rebase, or a
  /// full-mode cut). Applying it is valid from ANY replica state.
  kBase = 1,
  /// SaveDelta payload relative to `generation - 1`.
  kDelta = 2,
  /// Sidecar for the SAME generation as the next kBase/kDelta frame: dense
  /// model params + optimizer state + model name (see Encode/DecodeAux).
  kAux = 3,
  /// Replica -> source: a late joiner announcing itself (send me a base).
  kHello = 4,
  /// Replica -> source: chain poisoned (gap or corrupt frame) — rebase me.
  kResync = 5,
  /// Replica -> source: `generation` is applied and serving (lag probe).
  kAck = 6,
  /// Either direction: liveness probe, no payload. `generation` carries the
  /// sender's current head/applied generation as a free diagnostic.
  kHeartbeat = 7,
};

bool IsValidFrameKind(uint8_t kind);

struct Frame {
  FrameKind kind = FrameKind::kBase;
  uint64_t generation = 0;
  uint64_t train_step = 0;
  std::string payload;
};

/// Serializes one frame, fingerprint included, into a single buffer
/// reserved to the exact frame size from the local payload's length: the
/// payload is copied once and never regrown.
std::string EncodeFrame(FrameKind kind, uint64_t generation,
                        uint64_t train_step, const std::string& payload);
std::string EncodeFrame(const Frame& frame);

/// An encoded frame, immutable once built. The source shares one instance
/// across every link's send queue and the delta history ring.
using SharedFrame = std::shared_ptr<const std::string>;

/// Parses `bytes` as EXACTLY one encoded frame (no leading damage, no
/// trailing bytes). The durable replica ledger stores frames in this form so
/// the wire fingerprint doubles as the on-disk integrity check.
Status DecodeFrame(const std::string& bytes, Frame* out);

/// The non-store half of a ServingSnapshot, shipped as a kAux payload so a
/// replica's snapshots carry the same dense weights / optimizer state the
/// source's do.
struct AuxState {
  std::string model_name;
  std::vector<std::vector<float>> dense_params;
  bool has_optimizer = false;
  std::string optimizer_state;
};

std::string EncodeAux(const AuxState& aux);
Status DecodeAux(const std::string& payload, AuxState* out);

/// Incremental push parser: Feed() raw stream chunks in, Next() frames out.
/// Tolerates arbitrary chunk boundaries, and re-synchronizes after damage
/// by scanning forward to the next magic:
///
///  - dropped frame: parses cleanly; the generation gap is the CONSUMER's
///    signal (the parser cannot know a frame never arrived);
///  - truncated frame: the next frame's bytes get consumed as the missing
///    payload, the fingerprint fails, and the scan re-locks on a later
///    magic (frames after the damage zone parse normally);
///  - flipped byte: fingerprint (or header validation) fails, same rescan.
///
/// A contiguous damage zone surfaces as a small bounded number of kCorrupt
/// results (one per rescan step, not one per byte) before parsing resumes;
/// consumers treat kCorrupt idempotently (poison once, resync once).
///
/// Verification streams: Feed() folds FNV-1a over the frame at the read
/// position as its bytes arrive, so by the time the last byte of a large
/// frame lands its fingerprint is one compare away. Next() still returns a
/// frame only after that compare passes. The receive buffer grows with the
/// bytes fed (realloc, which moves large blocks without copying them) and
/// is never sized from a header's unverified payload_size.
class FrameParser {
 public:
  enum class Result {
    kFrame,     ///< *out holds the next frame
    kNeedMore,  ///< no complete frame buffered; Feed() more bytes
    kCorrupt,   ///< damage detected and skipped; call Next() again
  };

  FrameParser() = default;
  ~FrameParser();
  FrameParser(const FrameParser&) = delete;
  FrameParser& operator=(const FrameParser&) = delete;

  void Feed(const void* data, size_t size);
  Result Next(Frame* out);

  /// Total kCorrupt results surfaced.
  uint64_t corrupt_events() const { return corrupt_events_; }
  size_t buffered_bytes() const { return size_ - pos_; }
  /// Bytes allocated for the receive buffer.
  size_t buffer_capacity() const { return capacity_; }

 private:
  /// Discards [pos_, pos_ + n), restarts the fingerprint for the frame at
  /// the new position, and compacts the buffer when the dead prefix
  /// dominates.
  void Consume(size_t n);
  /// Folds the not-yet-hashed bytes of the frame at pos_ into fp_state_:
  /// the header while it is incomplete, then header + payload once a
  /// plausible header declares the payload's length.
  void HashBuffered();

  char* data_ = nullptr;  // malloc'd; grown with realloc
  size_t size_ = 0;       // bytes fed and not yet compacted away
  size_t capacity_ = 0;
  size_t pos_ = 0;        // start of the frame being parsed
  uint64_t fp_state_ = io::kFingerprintBasis;
  size_t fp_len_ = 0;     // bytes from pos_ folded into fp_state_
  uint64_t corrupt_events_ = 0;
};

}  // namespace replicate
}  // namespace cafe

#endif  // CAFE_REPLICATE_FRAME_H_
