// Wire-format serialization helpers.
//
// The paper reports concrete on-the-wire sizes (a 205-byte cxtQuery, 53-136
// byte cxtItems, 1696-byte Fuego event notifications, 340-byte NMEA bursts)
// and those sizes drive both latency (serialization is 26-33% of SM time)
// and energy (BT packet segmentation). We therefore serialize objects for
// real rather than faking sizes: ByteWriter/ByteReader implement a simple
// big-endian tagged format used by every simulated transport.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace contory {

/// Append-only big-endian binary encoder.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Appends after the bytes `buf` already holds.
  explicit ByteWriter(std::vector<std::byte> buf) noexcept
      : buf_(std::move(buf)) {}

  void WriteU8(std::uint8_t v);
  void WriteU32(std::uint32_t v);
  void WriteU64(std::uint64_t v);
  void WriteI64(std::int64_t v);
  void WriteF64(double v);
  void WriteBool(bool v);
  /// Length-prefixed (u32) string.
  void WriteString(std::string_view v);
  /// Raw bytes without a length prefix.
  void WriteRaw(std::span<const std::byte> bytes);
  /// Raw zero padding, used to model fixed-size protocol envelopes.
  void WritePadding(std::size_t n);
  /// Allocates room for n bytes in total, when the final size is known.
  void Reserve(std::size_t n) { buf_.reserve(n); }

  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }
  [[nodiscard]] const std::vector<std::byte>& bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> Take() && { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Overwrite the big-endian value at `pos` in place, in the encoding of
/// ByteWriter::WriteU32/WriteI64. Throws std::out_of_range when the value
/// does not fit: callers patch fields whose bounds they have read.
void PutU32(std::span<std::byte> data, std::size_t pos, std::uint32_t v);
void PutI64(std::span<std::byte> data, std::size_t pos, std::int64_t v);

/// Sequential decoder over a byte span. All reads are bounds-checked and
/// return Status failures instead of reading past the end, because frames
/// arrive from simulated peers and must be treated as untrusted input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) noexcept
      : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> ReadU8();
  [[nodiscard]] Result<std::uint32_t> ReadU32();
  [[nodiscard]] Result<std::uint64_t> ReadU64();
  [[nodiscard]] Result<std::int64_t> ReadI64();
  [[nodiscard]] Result<double> ReadF64();
  [[nodiscard]] Result<bool> ReadBool();
  [[nodiscard]] Result<std::string> ReadString();
  /// The next n raw bytes: one bounds check and one copy. Fails with the
  /// same "truncated frame" status as the scalar reads when fewer than n
  /// bytes remain, before allocating anything.
  [[nodiscard]] Result<std::vector<std::byte>> ReadBytes(std::size_t n);
  /// Skips n bytes (e.g. envelope padding).
  [[nodiscard]] Status Skip(std::size_t n);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  [[nodiscard]] bool AtEnd() const noexcept { return pos_ == data_.size(); }

 private:
  [[nodiscard]] Status Require(std::size_t n) const;

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

}  // namespace contory
