#include "replicate/frame.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

namespace cafe {
namespace replicate {

bool IsValidFrameKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(FrameKind::kBase) &&
         kind <= static_cast<uint8_t>(FrameKind::kHeartbeat);
}

std::string EncodeFrame(FrameKind kind, uint64_t generation,
                        uint64_t train_step, const std::string& payload) {
  io::Writer writer;
  writer.Reserve(kFrameOverheadBytes + payload.size());
  writer.WriteU32(kFrameMagic);
  writer.WriteU8(static_cast<uint8_t>(kind));
  writer.WriteU64(generation);
  writer.WriteU64(train_step);
  writer.WriteU64(payload.size());
  writer.WriteBytes(payload.data(), payload.size());
  const uint64_t fp = io::Fingerprint(writer.buffer().data(), writer.size());
  writer.WriteU64(fp);
  return writer.Release();
}

std::string EncodeFrame(const Frame& frame) {
  return EncodeFrame(frame.kind, frame.generation, frame.train_step,
                     frame.payload);
}

Status DecodeFrame(const std::string& bytes, Frame* out) {
  FrameParser parser;
  parser.Feed(bytes.data(), bytes.size());
  switch (parser.Next(out)) {
    case FrameParser::Result::kFrame:
      break;
    case FrameParser::Result::kNeedMore:
      return Status::OutOfRange("frame truncated");
    case FrameParser::Result::kCorrupt:
      return Status::InvalidArgument("frame corrupt");
  }
  if (parser.buffered_bytes() != 0) {
    return Status::InvalidArgument("trailing bytes after frame");
  }
  return Status::OK();
}

std::string EncodeAux(const AuxState& aux) {
  io::Writer writer;
  writer.WriteString(aux.model_name);
  writer.WriteU64(aux.dense_params.size());
  for (const std::vector<float>& block : aux.dense_params) {
    writer.WriteVec(block);
  }
  writer.WriteBool(aux.has_optimizer);
  writer.WriteString(aux.optimizer_state);
  return writer.Release();
}

Status DecodeAux(const std::string& payload, AuxState* out) {
  io::Reader reader(&payload);
  CAFE_RETURN_IF_ERROR(reader.ReadString(&out->model_name));
  uint64_t blocks = 0;
  CAFE_RETURN_IF_ERROR(reader.ReadU64(&blocks));
  if (blocks > reader.remaining()) {
    return Status::OutOfRange("aux payload: corrupt dense block count");
  }
  out->dense_params.resize(blocks);
  for (std::vector<float>& block : out->dense_params) {
    CAFE_RETURN_IF_ERROR(reader.ReadVec(&block));
  }
  CAFE_RETURN_IF_ERROR(reader.ReadBool(&out->has_optimizer));
  CAFE_RETURN_IF_ERROR(reader.ReadString(&out->optimizer_state));
  if (reader.remaining() != 0) {
    return Status::InvalidArgument("aux payload: trailing bytes");
  }
  return Status::OK();
}

namespace {

/// Reads the header fields of the frame starting at `header` (which must
/// hold kFrameHeaderBytes bytes). False when they cannot start a frame.
bool ParseHeader(const char* header, uint8_t* kind, uint64_t* generation,
                 uint64_t* train_step, uint64_t* payload_size) {
  uint32_t magic = 0;
  std::memcpy(&magic, header, sizeof(magic));
  *kind = static_cast<uint8_t>(header[4]);
  std::memcpy(generation, header + 5, sizeof(*generation));
  std::memcpy(train_step, header + 13, sizeof(*train_step));
  std::memcpy(payload_size, header + 21, sizeof(*payload_size));
  return magic == kFrameMagic && IsValidFrameKind(*kind) &&
         *payload_size <= kMaxFramePayloadBytes;
}

}  // namespace

FrameParser::~FrameParser() { std::free(data_); }

void FrameParser::Feed(const void* data, size_t size) {
  if (size == 0) return;
  if (capacity_ - size_ < size) {
    // Geometric growth driven only by bytes that actually arrived. Large
    // blocks are mmap-backed, so realloc remaps pages instead of copying
    // what is already buffered.
    const size_t capacity =
        std::max({size_ + size, capacity_ * 2, size_t{4096}});
    char* grown = static_cast<char*>(std::realloc(data_, capacity));
    if (grown == nullptr) throw std::bad_alloc();
    data_ = grown;
    capacity_ = capacity;
  }
  std::memcpy(data_ + size_, data, size);
  size_ += size;
  HashBuffered();
}

void FrameParser::HashBuffered() {
  const size_t avail = size_ - pos_;
  size_t limit = kFrameHeaderBytes;
  if (avail >= kFrameHeaderBytes) {
    uint8_t kind = 0;
    uint64_t generation = 0, train_step = 0, payload_size = 0;
    if (ParseHeader(data_ + pos_, &kind, &generation, &train_step,
                    &payload_size)) {
      limit += static_cast<size_t>(payload_size);
    }
  }
  const size_t end = std::min(avail, limit);
  if (fp_len_ < end) {
    fp_state_ =
        io::FingerprintExtend(fp_state_, data_ + pos_ + fp_len_, end - fp_len_);
    fp_len_ = end;
  }
}

void FrameParser::Consume(size_t n) {
  pos_ += n;
  fp_state_ = io::kFingerprintBasis;
  fp_len_ = 0;
  if (pos_ == size_) {
    pos_ = size_ = 0;
  } else if (pos_ > 4096 && pos_ >= size_ / 2) {
    std::memmove(data_, data_ + pos_, size_ - pos_);
    size_ -= pos_;
    pos_ = 0;
  }
}

FrameParser::Result FrameParser::Next(Frame* out) {
  while (true) {
    const size_t avail = size_ - pos_;
    if (avail < sizeof(uint32_t)) return Result::kNeedMore;

    // Lock onto the magic. Anything before it is damage.
    uint32_t magic = 0;
    std::memcpy(&magic, data_ + pos_, sizeof(magic));
    if (magic != kFrameMagic) {
      // Scan for the next full 4-byte magic so one damage zone costs one
      // rescan, not one event per skipped byte.
      const char* base = data_ + pos_;
      const char first = static_cast<char>(kFrameMagic & 0xff);
      size_t skip = avail - (sizeof(uint32_t) - 1);
      for (size_t at = 1; at + sizeof(uint32_t) <= avail;) {
        const void* hit = std::memchr(base + at, first, avail - at);
        if (hit == nullptr) break;
        const size_t offset =
            static_cast<size_t>(static_cast<const char*>(hit) - base);
        if (offset + sizeof(uint32_t) > avail) break;
        uint32_t candidate = 0;
        std::memcpy(&candidate, base + offset, sizeof(candidate));
        if (candidate == kFrameMagic) {
          skip = offset;
          break;
        }
        at = offset + 1;
      }
      Consume(skip);
      ++corrupt_events_;
      return Result::kCorrupt;
    }

    if (avail < kFrameHeaderBytes) return Result::kNeedMore;
    const char* header = data_ + pos_;
    uint8_t kind = 0;
    uint64_t generation = 0, train_step = 0, payload_size = 0;
    if (!ParseHeader(header, &kind, &generation, &train_step,
                     &payload_size)) {
      // A header this magic prefixes is garbage (likely a flipped byte or a
      // magic-looking run inside damaged payload): skip past the magic and
      // rescan.
      Consume(sizeof(uint32_t));
      ++corrupt_events_;
      return Result::kCorrupt;
    }

    const size_t total =
        kFrameHeaderBytes + static_cast<size_t>(payload_size) + 8;
    if (avail < total) return Result::kNeedMore;

    // Bytes buffered behind a frame just consumed have not been hashed for
    // this position yet; everything Feed() already folded in is skipped.
    HashBuffered();
    uint64_t stored_fp = 0;
    std::memcpy(&stored_fp, header + kFrameHeaderBytes + payload_size,
                sizeof(stored_fp));
    if (fp_state_ != stored_fp) {
      Consume(sizeof(uint32_t));
      ++corrupt_events_;
      return Result::kCorrupt;
    }

    out->kind = static_cast<FrameKind>(kind);
    out->generation = generation;
    out->train_step = train_step;
    out->payload.assign(header + kFrameHeaderBytes,
                        static_cast<size_t>(payload_size));
    Consume(total);
    return Result::kFrame;
  }
}

}  // namespace replicate
}  // namespace cafe
