#ifndef PICTDB_COMMON_BYTES_H_
#define PICTDB_COMMON_BYTES_H_

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>

#include "common/status_or.h"

namespace pictdb {

/// Append-only little-endian serializer for binary formats: wire
/// payloads (net/protocol.cc) and the saved catalog image
/// (rel/catalog_io.cc). Everything is explicitly little-endian regardless
/// of host order, so bytes written on one machine decode bit-identically
/// on any other — a requirement for the golden test vectors and the
/// result cache's byte-identical replay.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

  void PutU16(uint16_t v) {
    PutU8(static_cast<uint8_t>(v));
    PutU8(static_cast<uint8_t>(v >> 8));
  }

  void PutU32(uint32_t v) {
    PutU16(static_cast<uint16_t>(v));
    PutU16(static_cast<uint16_t>(v >> 16));
  }

  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v));
    PutU32(static_cast<uint32_t>(v >> 32));
  }

  /// IEEE-754 bit pattern, little-endian. Exact round-trip (NaN
  /// payloads included), so coordinates survive losslessly.
  void PutDouble(double v) { PutU64(std::bit_cast<uint64_t>(v)); }

  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s) {
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
  }

  const std::string& str() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked little-endian deserializer. Every accessor returns an
/// InvalidArgument error instead of reading past the end, so decoding
/// truncated or malicious bytes is always a clean failure.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  StatusOr<uint8_t> U8() {
    if (pos_ + 1 > data_.size()) return Truncated("u8");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  StatusOr<uint16_t> U16() {
    if (pos_ + 2 > data_.size()) return Truncated("u16");
    uint16_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 2);
    pos_ += 2;
    if constexpr (std::endian::native == std::endian::big) {
      v = static_cast<uint16_t>((v >> 8) | (v << 8));
    }
    return v;
  }

  StatusOr<uint32_t> U32() {
    if (pos_ + 4 > data_.size()) return Truncated("u32");
    uint32_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 4);
    pos_ += 4;
    if constexpr (std::endian::native == std::endian::big) v = ByteSwap32(v);
    return v;
  }

  StatusOr<uint64_t> U64() {
    if (pos_ + 8 > data_.size()) return Truncated("u64");
    uint64_t v = 0;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    if constexpr (std::endian::native == std::endian::big) {
      v = (static_cast<uint64_t>(ByteSwap32(static_cast<uint32_t>(v)))
           << 32) |
          ByteSwap32(static_cast<uint32_t>(v >> 32));
    }
    return v;
  }

  StatusOr<double> Double() {
    PICTDB_ASSIGN_OR_RETURN(const uint64_t bits, U64());
    return std::bit_cast<double>(bits);
  }

  /// Length-prefixed string; `max_len` caps the declared length so a
  /// corrupt prefix cannot ask for gigabytes.
  StatusOr<std::string> String(size_t max_len) {
    PICTDB_ASSIGN_OR_RETURN(const uint32_t len, U32());
    if (len > max_len) {
      return Status::InvalidArgument("string length exceeds limit");
    }
    if (pos_ + len > data_.size()) return Truncated("string body");
    std::string out(data_.substr(pos_, len));
    pos_ += len;
    return out;
  }

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

  /// Decoders call this last: bytes beyond the message are a format
  /// violation, not padding.
  Status ExpectEnd() const {
    return AtEnd() ? Status::OK()
                   : Status::InvalidArgument(
                         "trailing bytes after message");
  }

 private:
  static Status Truncated(const char* what) {
    return Status::InvalidArgument(std::string("bytes truncated: ") +
                                   what);
  }
  static uint32_t ByteSwap32(uint32_t v) {
    return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) |
           (v << 24);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace pictdb

#endif  // PICTDB_COMMON_BYTES_H_
