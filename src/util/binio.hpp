// Little-endian binary stream I/O for versioned on-disk artifacts
// (checkpoints).
//
// Every multi-byte value is written least-significant byte first,
// independent of host endianness, so an artifact written on one machine
// restores bit-identically on any other. BinWriter/BinReader additionally
// maintain a running FNV-1a digest of every byte that passes through them:
// the writer appends it as a trailer and the reader verifies it, so any
// single-byte corruption of the payload is detected as a clear error
// instead of undefined behavior.
//
// Bytes move between the codec and its stream in blocks of up to 64 KiB,
// one write()/read() per block, never one put()/get() per byte. The digest
// is still FNV-1a over the payload byte by byte, so the block size shows
// in neither the bytes nor the digests. A reader may consume up to one
// block past the last value it returns: a stream must hold nothing after
// the artifact it carries.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace hp::util {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// One FNV-1a step over a single byte.
constexpr std::uint64_t fnv1a_byte(std::uint64_t hash, std::uint8_t byte) {
  return (hash ^ byte) * kFnvPrime;
}

/// FNV-1a over a 64-bit value, one byte at a time (LE order).
constexpr std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash = fnv1a_byte(hash, static_cast<std::uint8_t>(value >> (8 * i)));
  }
  return hash;
}

/// Bytes the codec hands to / takes from its stream per call.
inline constexpr std::size_t kBinBlockBytes = std::size_t{64} << 10;
using BinBlock = std::array<std::uint8_t, kBinBlockBytes>;

/// Little-endian writer with a running FNV-1a digest of the payload.
class BinWriter {
 public:
  /// Writes to `out` through a 64 KiB block buffer.
  explicit BinWriter(std::ostream& out)
      : out_(&out), block_(std::make_unique<BinBlock>()) {}
  /// Hash-only: digests every value and writes nothing.
  BinWriter() = default;

  /// Hands any buffered bytes to the stream; never throws.
  ~BinWriter() {
    try {
      flush();
    } catch (...) {
      // A stream that throws has set badbit first, so the failure stays
      // recorded on the stream; call good() to learn it before here.
    }
  }
  BinWriter(const BinWriter&) = delete;
  BinWriter& operator=(const BinWriter&) = delete;

  void u8(std::uint8_t v) { put_le<1>(v); }
  void u32(std::uint32_t v) { put_le<4>(v); }
  void u64(std::uint64_t v) { put_le<8>(v); }

  void i8(std::int8_t v) { u8(static_cast<std::uint8_t>(v)); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    for (const char c : s) u8(static_cast<std::uint8_t>(c));
  }

  /// Digest of everything written so far.
  std::uint64_t digest() const { return digest_; }

  /// Writes the current digest as a trailer (the trailer itself is not
  /// digested, so the matching BinReader::verify_digest_trailer sees the
  /// same payload hash), then flushes.
  void write_digest_trailer() {
    buffer<8>(digest_);
    flush();
  }

  /// Hands the buffered bytes to the stream with one write().
  void flush() {
    if (used_ == 0) return;
    out_->write(reinterpret_cast<const char*>(block_->data()),
                static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  /// Flushes, then reports whether every write so far reached the stream.
  bool good() {
    if (out_ == nullptr) return true;
    flush();
    return out_->good();
  }

 private:
  /// Digests and buffers the low `N` bytes of `v`. The digest stays in a
  /// local: a byte store may alias any member.
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    std::uint64_t d = digest_;
    for (std::size_t i = 0; i < N; ++i) {
      d = fnv1a_byte(d, static_cast<std::uint8_t>(v >> (8 * i)));
    }
    digest_ = d;
    buffer<N>(v);
  }

  /// Buffers the low `N` bytes of `v` undigested, flushing first when they
  /// would not fit, so a value never straddles two writes.
  template <std::size_t N>
  void buffer(std::uint64_t v) {
    if (!block_) return;
    if (kBinBlockBytes - used_ < N) flush();
    std::uint8_t* at = block_->data() + used_;
    for (std::size_t i = 0; i < N; ++i) {
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    used_ += N;
  }

  std::ostream* out_ = nullptr;
  std::unique_ptr<BinBlock> block_;
  std::size_t used_ = 0;
  std::uint64_t digest_ = kFnvOffset;
};

/// Little-endian reader mirroring BinWriter. Every read HP_REQUIREs that
/// the stream still has bytes, so a truncated artifact fails with a clear
/// error at the first missing byte.
class BinReader {
 public:
  /// `what` names the artifact in error messages ("checkpoint", ...).
  BinReader(std::istream& in, std::string what)
      : in_(in), what_(std::move(what)), block_(std::make_unique<BinBlock>()) {}

  std::uint8_t u8() { return static_cast<std::uint8_t>(get_le<1>()); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(get_le<4>()); }
  std::uint64_t u64() { return get_le<8>(); }

  std::int8_t i8() { return static_cast<std::int8_t>(u8()); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  std::string str(std::size_t max_len = 4096) {
    const std::uint32_t len = u32();
    HP_REQUIRE(len <= max_len, what_ + " is corrupt (string length " +
                                   std::to_string(len) + " exceeds limit)");
    std::string s;
    s.reserve(len);
    for (std::uint32_t i = 0; i < len; ++i) {
      s.push_back(static_cast<char>(u8()));
    }
    return s;
  }

  std::uint64_t digest() const { return digest_; }

  /// Reads the digest trailer and checks it against the payload digest.
  void verify_digest_trailer() {
    const std::uint64_t expected = digest_;
    HP_REQUIRE(fill(8), what_ + " is truncated (missing checksum trailer)");
    std::uint64_t stored = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      stored |= static_cast<std::uint64_t>((*block_)[pos_ + i]) << (8 * i);
    }
    pos_ += 8;
    HP_REQUIRE(stored == expected,
               what_ + " is corrupt (checksum mismatch)");
  }

  /// Requires that the stream holds nothing after the bytes read so far.
  void expect_end() {
    HP_REQUIRE(!fill(1),
               what_ + " is corrupt (trailing bytes after the checksum "
                       "trailer)");
  }

 private:
  /// True iff `n` unread bytes are in the block. When fewer are, moves the
  /// unread tail to the front and refills the rest with one read(), so a
  /// value that straddles two reads is still contiguous.
  bool fill(std::size_t n) {
    if (end_ - pos_ >= n) return true;
    std::memmove(block_->data(), block_->data() + pos_, end_ - pos_);
    end_ -= pos_;
    pos_ = 0;
    in_.read(reinterpret_cast<char*>(block_->data() + end_),
             static_cast<std::streamsize>(kBinBlockBytes - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    return end_ >= n;
  }

  /// Reads and digests `N` bytes as a little-endian value.
  template <std::size_t N>
  std::uint64_t get_le() {
    HP_REQUIRE(fill(N),
               what_ + " is truncated or corrupt (unexpected end of data)");
    const std::uint8_t* at = block_->data() + pos_;
    std::uint64_t v = 0;
    std::uint64_t d = digest_;
    for (std::size_t i = 0; i < N; ++i) {
      d = fnv1a_byte(d, at[i]);
      v |= static_cast<std::uint64_t>(at[i]) << (8 * i);
    }
    digest_ = d;
    pos_ += N;
    return v;
  }

  std::istream& in_;
  std::string what_;
  std::unique_ptr<BinBlock> block_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  std::uint64_t digest_ = kFnvOffset;
};

}  // namespace hp::util
