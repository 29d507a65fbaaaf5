// Unit tests for the util layer: RNG, InlineVector, stats, CSV, tables,
// and the block-buffered binary codec.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <type_traits>

#include "util/binio.hpp"
#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/inline_vector.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.uniform(bound), bound);
    }
  }
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(13);
  constexpr std::uint64_t kBound = 7;
  constexpr int kSamples = 70000;
  std::map<std::uint64_t, int> counts;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform(kBound)];
  for (std::uint64_t v = 0; v < kBound; ++v) {
    EXPECT_GT(counts[v], kSamples / static_cast<int>(kBound) * 8 / 10);
    EXPECT_LT(counts[v], kSamples / static_cast<int>(kBound) * 12 / 10);
  }
}

TEST(Rng, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double r = rng.real();
    EXPECT_GE(r, 0.0);
    EXPECT_LT(r, 1.0);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(3);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const auto original = v;
  rng.shuffle(std::span<int>(v));
  EXPECT_NE(v, original);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(11);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(InlineVector, StartsEmpty) {
  InlineVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
}

TEST(InlineVector, PushPopAndIndex) {
  InlineVector<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 20);
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.back(), 10);
}

TEST(InlineVector, OverflowThrows) {
  InlineVector<int, 2> v{1, 2};
  EXPECT_THROW(v.push_back(3), CheckError);
}

TEST(InlineVector, OutOfRangeIndexThrows) {
  InlineVector<int, 4> v{1};
  EXPECT_THROW(v[1], CheckError);
  EXPECT_THROW((InlineVector<int, 4>{}.pop_back()), CheckError);
}

TEST(InlineVector, EraseAtPreservesOrder) {
  InlineVector<int, 8> v{1, 2, 3, 4, 5};
  v.erase_at(1);
  EXPECT_EQ(v, (InlineVector<int, 8>{1, 3, 4, 5}));
  v.erase_at(0);
  EXPECT_EQ(v, (InlineVector<int, 8>{3, 4, 5}));
  v.erase_at(2);
  EXPECT_EQ(v, (InlineVector<int, 8>{3, 4}));
}

TEST(InlineVector, CopyAndMove) {
  InlineVector<int, 4> v{1, 2};
  auto copy = v;
  EXPECT_EQ(copy, v);
  copy.push_back(3);
  EXPECT_EQ(v.size(), 2u);  // copies are independent
  v = copy;
  EXPECT_EQ(v, (InlineVector<int, 4>{1, 2, 3}));
}

TEST(InlineVector, Contains) {
  InlineVector<int, 4> v{1, 3};
  EXPECT_TRUE(v.contains(3));
  EXPECT_FALSE(v.contains(2));
}

TEST(InlineVector, IsAPlainValueWithoutPadding) {
  // The engine keeps one of these per node: 16 ids and a 32-bit size, no
  // alignment padding, copied as bytes.
  static_assert(sizeof(InlineVector<std::int32_t, 16>) == 68);
  static_assert(std::is_trivially_copyable_v<std::int32_t>);
  static_assert(std::is_trivially_copyable_v<InlineVector<std::int32_t, 16>>);
  InlineVector<std::int32_t, 16> v{7, 8};
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(InlineVector, PushPopAcrossCapacityBoundary) {
  InlineVector<std::uint32_t, 4> v;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::uint32_t i = 0; i < 4; ++i) v.push_back(round * 10 + i);
    EXPECT_TRUE(v.full());
    EXPECT_THROW(v.push_back(99), CheckError);  // overflow stays checked
    EXPECT_EQ(v.size(), 4u);                    // failed push is a no-op
    for (std::uint32_t i = 4; i-- > 0;) {
      EXPECT_EQ(v.back(), round * 10 + i);
      v.pop_back();
    }
    EXPECT_TRUE(v.empty());
  }
  EXPECT_THROW(v.pop_back(), CheckError);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Samples, PercentilesAndExtremes) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Samples, EmptyThrows) {
  Samples s;
  EXPECT_THROW(s.mean(), CheckError);
  EXPECT_THROW(s.percentile(0.5), CheckError);
}

TEST(Histogram, BinningAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(0), 0.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(9), 10.0);
}

TEST(Histogram, AsciiRendersNonemptyBins) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  const std::string art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream out;
  {
    CsvWriter csv(out, {"a", "b"});
    csv.row().add(std::int64_t{1}).add("x");
    csv.row().add(std::int64_t{2}).add("y,z");
  }
  EXPECT_EQ(out.str(), "a,b\n1,x\n2,\"y,z\"\n");
}

TEST(Csv, EscapesQuotes) {
  std::ostringstream out;
  CsvWriter csv(out, {"v"});
  csv.row().add("say \"hi\"");
  EXPECT_EQ(out.str(), "v\n\"say \"\"hi\"\"\"\n");
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"n", "steps"});
  t.row().add(std::int64_t{8}).add(std::int64_t{12345});
  t.row().add(std::int64_t{128}).add(std::int64_t{7});
  std::ostringstream out;
  t.print(out);
  const std::string s = out.str();
  // Header plus two rows, all right-aligned to the widest cell.
  EXPECT_EQ(s, "  n  steps\n  8  12345\n128      7\n");
}

TEST(Table, RowArityMismatchThrows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.row().add("only one"), CheckError);
}

TEST(Check, MessageCarriesContext) {
  try {
    HP_CHECK(1 == 2, "the detail");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("the detail"), std::string::npos);
  }
}


// --- binary codec ------------------------------------------------------------

/// FNV-1a over `bytes`, one byte at a time: the reference every codec
/// digest must equal.
std::uint64_t fnv1a_reference(const std::string& bytes) {
  std::uint64_t hash = util::kFnvOffset;
  for (const char c : bytes) {
    hash = util::fnv1a_byte(hash, static_cast<std::uint8_t>(c));
  }
  return hash;
}

/// Writes 23-byte records of mixed widths spanning `blocks` 64 KiB blocks.
/// A u8 prefix of length `shift` moves which field of a record straddles
/// each boundary at which the reader refills.
void write_pattern(util::BinWriter& w, std::size_t shift, int blocks) {
  for (std::size_t i = 0; i < shift; ++i) w.u8(static_cast<std::uint8_t>(i));
  const std::size_t records =
      static_cast<std::size_t>(blocks) * util::kBinBlockBytes / 23 + 1;
  for (std::size_t i = 0; i < records; ++i) {
    w.u64(0x0123456789abcdefULL * (i + 1));
    w.i32(-static_cast<std::int32_t>(i));
    w.i8(static_cast<std::int8_t>(i));
    w.str("ab");  // 4-byte length + 2 bytes
    w.u32(static_cast<std::uint32_t>(i));
  }
}

void read_pattern(util::BinReader& r, std::size_t shift, int blocks) {
  for (std::size_t i = 0; i < shift; ++i) {
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(i));
  }
  const std::size_t records =
      static_cast<std::size_t>(blocks) * util::kBinBlockBytes / 23 + 1;
  for (std::size_t i = 0; i < records; ++i) {
    ASSERT_EQ(r.u64(), 0x0123456789abcdefULL * (i + 1)) << "record " << i;
    ASSERT_EQ(r.i32(), -static_cast<std::int32_t>(i));
    ASSERT_EQ(r.i8(), static_cast<std::int8_t>(i));
    ASSERT_EQ(r.str(), "ab");
    ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(i));
  }
}

TEST(BinIO, ValuesStraddlingBlockBoundariesRoundTrip) {
  // The reader's first refill boundary, stream byte 65536, falls inside an
  // i32 (shift 0), a u64 (3), a u32 (11) and a string length (17).
  for (const std::size_t shift : {std::size_t{0}, std::size_t{3},
                                  std::size_t{11}, std::size_t{17}}) {
    std::ostringstream sink;
    util::BinWriter w(sink);
    write_pattern(w, shift, 3);
    const std::uint64_t payload_digest = w.digest();
    w.write_digest_trailer();
    ASSERT_TRUE(w.good());
    const std::string bytes = sink.str();
    ASSERT_GT(bytes.size(), 3 * util::kBinBlockBytes);

    const std::string payload = bytes.substr(0, bytes.size() - 8);
    EXPECT_EQ(payload_digest, fnv1a_reference(payload)) << "shift " << shift;

    std::istringstream source(bytes);
    util::BinReader r(source, "artifact");
    read_pattern(r, shift, 3);
    EXPECT_EQ(r.digest(), payload_digest);
    EXPECT_NO_THROW(r.verify_digest_trailer());
    EXPECT_NO_THROW(r.expect_end());
  }
}

TEST(BinIO, HashOnlyWriterMatchesStreamedDigest) {
  std::ostringstream sink;
  util::BinWriter streamed(sink);
  util::BinWriter hashed;
  write_pattern(streamed, 5, 2);
  write_pattern(hashed, 5, 2);
  EXPECT_EQ(hashed.digest(), streamed.digest());
  EXPECT_TRUE(hashed.good());
  streamed.flush();
  EXPECT_EQ(hashed.digest(), fnv1a_reference(sink.str()));
}

TEST(BinIO, WriterHandsBytesToTheStreamOnFlushAndDestruction) {
  std::ostringstream sink;
  {
    util::BinWriter w(sink);
    w.u32(0x04030201);
    EXPECT_TRUE(sink.str().empty()) << "bytes reach the stream per block";
    w.flush();
    EXPECT_EQ(sink.str(), std::string("\x01\x02\x03\x04"));
    w.u8(5);
  }
  EXPECT_EQ(sink.str(), std::string("\x01\x02\x03\x04\x05"));
}

TEST(BinIO, TruncationAndTrailingBytesFailClearly) {
  std::ostringstream sink;
  {
    util::BinWriter w(sink);
    write_pattern(w, 0, 1);
    w.write_digest_trailer();
  }
  const std::string bytes = sink.str();
  const auto message = [](const std::string& input, bool trailing) {
    std::istringstream source(input);
    util::BinReader r(source, "artifact");
    try {
      read_pattern(r, 0, 1);
      r.verify_digest_trailer();
      if (trailing) r.expect_end();
    } catch (const CheckError& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  // A cut inside the payload's second block, then inside the trailer.
  EXPECT_NE(message(bytes.substr(0, util::kBinBlockBytes + 3), false)
                .find("artifact is truncated or corrupt (unexpected end of "
                      "data)"),
            std::string::npos);
  EXPECT_NE(message(bytes.substr(0, bytes.size() - 3), false)
                .find("artifact is truncated (missing checksum trailer)"),
            std::string::npos);
  EXPECT_EQ(message(bytes, true), "");
  EXPECT_NE(message(bytes + '\0', true).find("trailing bytes"),
            std::string::npos);
}

}  // namespace
}  // namespace hp
