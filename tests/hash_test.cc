#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/hex.h"
#include "util/hmac.h"
#include "util/random.h"
#include "util/sha1.h"
#include "util/sha256.h"
#include "util/sha_ni.h"

namespace pisrep::util {
namespace {

// --- SHA-1 (FIPS 180-1 / RFC 3174 vectors) ------------------------------

TEST(Sha1Test, EmptyString) {
  EXPECT_EQ(Sha1::Hash("").ToHex(),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1Test, Abc) {
  EXPECT_EQ(Sha1::Hash("abc").ToHex(),
            "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha1::Hash(input).ToHex(),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1Test, IncrementalMatchesOneShot) {
  std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); split += 7) {
    Sha1 h;
    h.Update(data.substr(0, split));
    h.Update(data.substr(split));
    EXPECT_EQ(h.Finish(), Sha1::Hash(data)) << "split at " << split;
  }
}

// Boundary lengths around the 64-byte block and 56-byte padding cutoff.
class Sha1BoundaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1BoundaryTest, IncrementalByteAtATimeMatchesOneShot) {
  std::string data(GetParam(), 'x');
  Sha1 h;
  for (char c : data) h.Update(std::string_view(&c, 1));
  EXPECT_EQ(h.Finish(), Sha1::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha1BoundaryTest,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119,
                                           120, 127, 128, 129, 1000));

TEST(Sha1Test, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha1::Hash("a"), Sha1::Hash("b"));
  EXPECT_NE(Sha1::Hash("abc"), Sha1::Hash("abd"));
  EXPECT_NE(Sha1::Hash("abc"), Sha1::Hash("abc "));
}

TEST(Sha1Test, DigestOrderingIsLexicographic) {
  Sha1Digest a = Sha1::Hash("a");
  Sha1Digest b = Sha1::Hash("b");
  EXPECT_TRUE((a < b) || (b < a));
  EXPECT_EQ(a, Sha1::Hash("a"));
}

// --- SHA-256 (FIPS 180-4 vectors) ----------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(
      Sha256::Hash("").ToHex(),
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(
      Sha256::Hash("abc").ToHex(),
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(
      Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(
      Sha256::Hash(input).ToHex(),
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

class Sha256BoundaryTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256BoundaryTest, IncrementalMatchesOneShot) {
  std::string data(GetParam(), 'y');
  Sha256 h;
  for (std::size_t i = 0; i < data.size(); i += 3) {
    h.Update(data.substr(i, 3));
  }
  EXPECT_EQ(h.Finish(), Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256BoundaryTest,
                         ::testing::Values(0, 1, 55, 56, 63, 64, 65, 127, 128,
                                           500));

// --- Both hashers: Update paths, and scalar vs hardware block routines -----
//
// On a SHA-NI host every Sha1/Sha256 call goes through the hardware routine,
// so the scalar routines are driven here directly (util/sha_ni.h) and each
// is checked against the FIPS vectors and against the other.

using BlockRoutine = void (*)(std::uint32_t*, const std::uint8_t*,
                              std::size_t);

struct Sha1Traits {
  using Hasher = Sha1;
  static constexpr const char* kName = "Sha1";
  static constexpr std::array<std::uint32_t, 5> kInit = {
      0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  static constexpr BlockRoutine kScalar = internal::Sha1BlocksScalar;
#ifdef PISREP_SHA_NI
  static constexpr BlockRoutine kHardware = internal::Sha1BlocksShaNi;
#else
  static constexpr BlockRoutine kHardware = nullptr;
#endif
  // FIPS 180-1 / RFC 3174: empty, "abc", the two-block message, 10^6 'a'.
  static constexpr std::array<const char*, 4> kVectors = {
      "da39a3ee5e6b4b0d3255bfef95601890afd80709",
      "a9993e364706816aba3e25717850c26c9cd0d89d",
      "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
      "34aa973cd4c4daa4f61eeb2bdbad27316534016f"};
};

struct Sha256Traits {
  using Hasher = Sha256;
  static constexpr const char* kName = "Sha256";
  static constexpr std::array<std::uint32_t, 8> kInit = {
      0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au, 0x510e527fu,
      0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
  static constexpr BlockRoutine kScalar = internal::Sha256BlocksScalar;
#ifdef PISREP_SHA_NI
  static constexpr BlockRoutine kHardware = internal::Sha256BlocksShaNi;
#else
  static constexpr BlockRoutine kHardware = nullptr;
#endif
  static constexpr std::array<const char*, 4> kVectors = {
      "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
      "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
      "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"};
};

/// The messages behind each traits' kVectors, in order.
std::array<std::string, 4> FipsMessages() {
  return {"", "abc",
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
          std::string(1000000, 'a')};
}

/// Pads `message` the way both hashers do (0x80, zeros to 56 mod 64, the
/// 64-bit big-endian bit length), compresses it with `routine` in one call
/// and renders the state as a hex digest.
template <typename Traits>
std::string DigestWith(BlockRoutine routine, std::string_view message) {
  std::string padded(message);
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(message.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<char>(bits >> (8 * i)));
  }
  auto state = Traits::kInit;
  routine(state.data(), reinterpret_cast<const std::uint8_t*>(padded.data()),
          padded.size() / 64);
  std::string bytes;
  for (std::uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      bytes.push_back(static_cast<char>(word >> shift));
    }
  }
  return HexEncode(bytes);
}

/// The hardware routine, or null (and the caller skips) when this build or
/// this CPU has none.
template <typename Traits>
BlockRoutine HardwareRoutine() {
  return internal::CpuHasShaNi() ? Traits::kHardware : nullptr;
}

std::string RandomBytes(Rng& rng, std::size_t len) {
  std::string out(len, '\0');
  for (char& c : out) c = static_cast<char>(rng.NextBelow(256));
  return out;
}

/// Feeds `data` to a hasher in random-sized pieces (0 to 300 bytes, with the
/// odd piece large enough to cover several whole blocks at once).
template <typename Hasher>
auto HashInRandomPieces(Rng& rng, std::string_view data) {
  Hasher h;
  std::size_t pos = 0;
  while (pos < data.size()) {
    std::size_t take =
        rng.NextBool(0.1) ? rng.NextBelow(4096) : rng.NextBelow(301);
    take = std::min(take, data.size() - pos);
    h.Update(data.substr(pos, take));
    pos += take;
  }
  return h.Finish();
}

template <typename Traits>
class ShaHasherTest : public ::testing::Test {};

class TraitsName {
 public:
  template <typename Traits>
  static std::string GetName(int) {
    return Traits::kName;
  }
};

using HasherTraits = ::testing::Types<Sha1Traits, Sha256Traits>;
TYPED_TEST_SUITE(ShaHasherTest, HasherTraits, TraitsName);

TYPED_TEST(ShaHasherTest, MixedChunkSizesMatchOneShot) {
  // Exercises every path through Update: tail-buffer fill, whole blocks
  // straight from the caller's buffer, and straddles of both.
  using Hasher = typename TypeParam::Hasher;
  std::string data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<char>(i * 31));
  const std::size_t chunks[] = {1, 7, 64, 63, 65, 128, 200, 5, 300, 167};
  Hasher h;
  std::size_t pos = 0, turn = 0;
  while (pos < data.size()) {
    std::size_t take = chunks[turn++ % (sizeof(chunks) / sizeof(chunks[0]))];
    if (take > data.size() - pos) take = data.size() - pos;
    h.Update(std::string_view(data).substr(pos, take));
    pos += take;
  }
  EXPECT_EQ(h.Finish(), Hasher::Hash(data));
}

TYPED_TEST(ShaHasherTest, ScalarRoutineMatchesFipsVectors) {
  const auto messages = FipsMessages();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(DigestWith<TypeParam>(TypeParam::kScalar, messages[i]),
              TypeParam::kVectors[i])
        << "vector " << i;
  }
}

TYPED_TEST(ShaHasherTest, HardwareRoutineMatchesFipsVectors) {
  BlockRoutine hardware = HardwareRoutine<TypeParam>();
  if (hardware == nullptr) GTEST_SKIP() << "no SHA-NI on this host";
  const auto messages = FipsMessages();
  for (std::size_t i = 0; i < messages.size(); ++i) {
    EXPECT_EQ(DigestWith<TypeParam>(hardware, messages[i]),
              TypeParam::kVectors[i])
        << "vector " << i;
  }
}

TYPED_TEST(ShaHasherTest, HardwareMatchesScalarOnRandomInputs) {
  BlockRoutine hardware = HardwareRoutine<TypeParam>();
  if (hardware == nullptr) GTEST_SKIP() << "no SHA-NI on this host";
  Rng rng(0x5ba1);
  std::vector<std::size_t> lengths;
  for (int i = 0; i < 400; ++i) lengths.push_back(rng.NextBelow(4097));
  for (std::size_t big : {256u << 10, (256u << 10) + 55, (1u << 20) + 13}) {
    lengths.push_back(big);
  }
  for (std::size_t len : lengths) {
    const std::string data = RandomBytes(rng, len);
    const std::string scalar = DigestWith<TypeParam>(TypeParam::kScalar, data);
    ASSERT_EQ(DigestWith<TypeParam>(hardware, data), scalar)
        << "length " << len;
    // The public hasher, fed in random pieces, picks its routine itself.
    ASSERT_EQ(
        HashInRandomPieces<typename TypeParam::Hasher>(rng, data).ToHex(),
        scalar)
        << "length " << len;
  }
}

// --- HMAC-SHA256 (RFC 4231 vectors) ---------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  std::string key(20, '\x0b');
  EXPECT_EQ(
      HmacSha256Hex(key, "Hi There"),
      "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      HmacSha256Hex("Jefe", "what do ya want for nothing?"),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  std::string key(20, '\xaa');
  std::string data(50, '\xdd');
  EXPECT_EQ(
      HmacSha256Hex(key, data),
      "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  std::string key(131, '\xaa');
  EXPECT_EQ(
      HmacSha256Hex(key, "Test Using Larger Than Block-Size Key - Hash Key "
                         "First"),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, DifferentKeysDifferentMacs) {
  EXPECT_NE(HmacSha256Hex("k1", "msg"), HmacSha256Hex("k2", "msg"));
  EXPECT_NE(HmacSha256Hex("k", "msg1"), HmacSha256Hex("k", "msg2"));
}

// --- Hex codec -------------------------------------------------------------

TEST(HexTest, EncodeDecodeRoundTrip) {
  std::string data = "\x00\x01\x7f\xff\xab binary";
  std::string hex = HexEncode(data);
  auto decoded = HexDecode(hex);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::string(decoded->begin(), decoded->end()), data);
}

TEST(HexTest, EncodeIsLowercase) {
  std::uint8_t bytes[] = {0xAB, 0xCD, 0xEF};
  EXPECT_EQ(HexEncode(bytes, 3), "abcdef");
}

TEST(HexTest, DecodeAcceptsUppercase) {
  auto decoded = HexDecode("ABCDEF");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0], 0xAB);
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
  EXPECT_FALSE(HexDecode("a ").ok());
}

TEST(HexTest, EmptyIsValid) {
  auto decoded = HexDecode("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());
}

}  // namespace
}  // namespace pisrep::util
