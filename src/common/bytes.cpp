#include "common/bytes.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace contory {
namespace {

template <typename T>
void AppendBigEndian(std::vector<std::byte>& buf, T v) {
  for (int shift = static_cast<int>(sizeof(T)) * 8 - 8; shift >= 0;
       shift -= 8) {
    buf.push_back(static_cast<std::byte>((v >> shift) & 0xff));
  }
}

template <typename T>
void StoreBigEndian(std::span<std::byte> data, std::size_t pos, T v) {
  if (pos > data.size() || data.size() - pos < sizeof(T)) {
    throw std::out_of_range("big-endian store past the end of the buffer");
  }
  for (std::size_t i = sizeof(T); i-- > 0; v >>= 8) {
    data[pos + i] = static_cast<std::byte>(v & 0xff);
  }
}

template <typename T>
T ReadBigEndian(std::span<const std::byte> data, std::size_t pos) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | static_cast<T>(data[pos + i]));
  }
  return v;
}

}  // namespace

void ByteWriter::WriteU8(std::uint8_t v) { AppendBigEndian(buf_, v); }
void ByteWriter::WriteU32(std::uint32_t v) { AppendBigEndian(buf_, v); }
void ByteWriter::WriteU64(std::uint64_t v) { AppendBigEndian(buf_, v); }

void ByteWriter::WriteI64(std::int64_t v) {
  WriteU64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::WriteF64(double v) {
  WriteU64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::WriteBool(bool v) { WriteU8(v ? 1 : 0); }

void ByteWriter::WriteString(std::string_view v) {
  WriteU32(static_cast<std::uint32_t>(v.size()));
  const auto* p = reinterpret_cast<const std::byte*>(v.data());
  buf_.insert(buf_.end(), p, p + v.size());
}

void ByteWriter::WriteRaw(std::span<const std::byte> bytes) {
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::WritePadding(std::size_t n) {
  buf_.insert(buf_.end(), n, std::byte{0});
}

void PutU32(std::span<std::byte> data, std::size_t pos, std::uint32_t v) {
  StoreBigEndian(data, pos, v);
}

void PutI64(std::span<std::byte> data, std::size_t pos, std::int64_t v) {
  StoreBigEndian(data, pos, std::bit_cast<std::uint64_t>(v));
}

Status ByteReader::Require(std::size_t n) const {
  if (remaining() < n) {
    return InvalidArgument("truncated frame: need " + std::to_string(n) +
                           " bytes, have " + std::to_string(remaining()));
  }
  return Status::Ok();
}

Result<std::uint8_t> ByteReader::ReadU8() {
  if (auto s = Require(1); !s.ok()) return s;
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint32_t> ByteReader::ReadU32() {
  if (auto s = Require(4); !s.ok()) return s;
  auto v = ReadBigEndian<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::ReadU64() {
  if (auto s = Require(8); !s.ok()) return s;
  auto v = ReadBigEndian<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::ReadI64() {
  auto v = ReadU64();
  if (!v.ok()) return v.status();
  return std::bit_cast<std::int64_t>(*v);
}

Result<double> ByteReader::ReadF64() {
  auto v = ReadU64();
  if (!v.ok()) return v.status();
  return std::bit_cast<double>(*v);
}

Result<bool> ByteReader::ReadBool() {
  auto v = ReadU8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

Result<std::string> ByteReader::ReadString() {
  auto len = ReadU32();
  if (!len.ok()) return len.status();
  if (auto s = Require(*len); !s.ok()) return s;
  std::string out(*len, '\0');
  std::memcpy(out.data(), data_.data() + pos_, *len);
  pos_ += *len;
  return out;
}

Result<std::vector<std::byte>> ByteReader::ReadBytes(std::size_t n) {
  if (auto s = Require(n); !s.ok()) return s;
  const auto first = data_.begin() + static_cast<std::ptrdiff_t>(pos_);
  std::vector<std::byte> out(first, first + static_cast<std::ptrdiff_t>(n));
  pos_ += n;
  return out;
}

Status ByteReader::Skip(std::size_t n) {
  if (auto s = Require(n); !s.ok()) return s;
  pos_ += n;
  return Status::Ok();
}

}  // namespace contory
