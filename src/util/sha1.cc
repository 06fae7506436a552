#include "util/sha1.h"

#include <cstring>

#include "util/hex.h"
#include "util/sha_ni.h"

// Hardware compression (SHA-NI) is worth ~10x on the client's read path:
// every binary the client has not seen before is hashed while its launch
// waits for the decision. util/sha_ni.h holds the gate.
#ifdef PISREP_SHA_NI
#include <immintrin.h>
#endif

namespace pisrep::util {

namespace {

inline std::uint32_t RotL(std::uint32_t x, int n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

namespace internal {

void Sha1BlocksScalar(std::uint32_t state[5], const std::uint8_t* data,
                      std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[80];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(data[i * 4]) << 24) |
             (static_cast<std::uint32_t>(data[i * 4 + 1]) << 16) |
             (static_cast<std::uint32_t>(data[i * 4 + 2]) << 8) |
             static_cast<std::uint32_t>(data[i * 4 + 3]);
    }
    for (int i = 16; i < 80; ++i) {
      w[i] = RotL(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                  e = state[4];
    for (int i = 0; i < 80; ++i) {
      std::uint32_t f, k;
      if (i < 20) {
        f = (b & c) | ((~b) & d);
        k = 0x5A827999u;
      } else if (i < 40) {
        f = b ^ c ^ d;
        k = 0x6ED9EBA1u;
      } else if (i < 60) {
        f = (b & c) | (b & d) | (c & d);
        k = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        k = 0xCA62C1D6u;
      }
      std::uint32_t tmp = RotL(a, 5) + f + e + k + w[i];
      e = d;
      d = c;
      c = RotL(b, 30);
      b = a;
      a = tmp;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
  }
}

#ifdef PISREP_SHA_NI

/// FIPS 180-1 compression via the SHA-NI extension: four rounds per
/// sha1rnds4 (its immediate picks the round function and constant of each
/// 20-round stage), the next E folded into the message words by sha1nexte,
/// and the schedule W[i] = rotl1(W[i-3] ^ W[i-8] ^ W[i-14] ^ W[i-16]) four
/// words at a time via sha1msg1, a xor and sha1msg2. The instructions keep
/// A in the high lane, so the state is loaded reversed and E rides in the
/// high lane of its own register; the portable A..E order is restored on
/// exit.
///
/// Message vector m(g) holds W[4g..4g+3], the words of four-round group g,
/// and lives in register g % 4. Group g finishes m(g+1) (msg2), folds m(g)
/// into m(g+2) (xor) and starts m(g+3) (msg1) wherever those are still
/// needed, so each vector is ready one group before its rounds run.
__attribute__((target("sha,sse4.1")))
void Sha1BlocksShaNi(std::uint32_t state[5], const std::uint8_t* data,
                     std::size_t blocks) {
  const __m128i kShuffle =
      _mm_set_epi64x(0x0001020304050607ULL, 0x08090a0b0c0d0e0fULL);

  __m128i abcd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);  // DCBA: A in the high lane
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);

  while (blocks-- > 0) {
    const __m128i abcd_save = abcd;
    const __m128i e_save = e0;
    __m128i e1;

    // Rounds 0-3
    __m128i msg0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 0));
    msg0 = _mm_shuffle_epi8(msg0, kShuffle);
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);

    // Rounds 4-7
    __m128i msg1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16));
    msg1 = _mm_shuffle_epi8(msg1, kShuffle);
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);

    // Rounds 8-11
    __m128i msg2 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 32));
    msg2 = _mm_shuffle_epi8(msg2, kShuffle);
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 12-15
    __m128i msg3 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 48));
    msg3 = _mm_shuffle_epi8(msg3, kShuffle);
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 16-19
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 20-23
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 24-27
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 28-31
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 32-35
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 36-39
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 40-43
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 44-47
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 48-51
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 52-55
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 56-59
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);

    // Rounds 60-63
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);

    // Rounds 64-67
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);

    // Rounds 68-71
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);

    // Rounds 72-75
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);

    // Rounds 76-79
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    // Fold in the block's starting state: E gets rotl30 of the A that
    // entered the last four rounds, plus its saved value.
    e0 = _mm_sha1nexte_epu32(e0, e_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += 64;
  }

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abcd);
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // PISREP_SHA_NI

}  // namespace internal

std::string Sha1Digest::ToHex() const {
  return HexEncode(bytes.data(), bytes.size());
}

Sha1::Sha1()
    : state_{0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u},
      total_bytes_(0),
      buffered_(0) {}

void Sha1::Update(std::string_view data) {
  Update(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

void Sha1::Update(const std::uint8_t* data, std::size_t len) {
  total_bytes_ += len;
  if (buffered_ > 0) {
    std::size_t take = 64 - buffered_;
    if (take > len) take = len;
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      ProcessBlocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Whole blocks compress straight from the caller's buffer — no staging
  // copy, and the hardware path amortizes its state setup across all of
  // them in one call.
  if (std::size_t blocks = len / 64; blocks > 0) {
    ProcessBlocks(data, blocks);
    data += blocks * 64;
    len -= blocks * 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), data, len);
    buffered_ = len;
  }
}

void Sha1::ProcessBlocks(const std::uint8_t* data, std::size_t blocks) {
#ifdef PISREP_SHA_NI
  if (internal::CpuHasShaNi()) {
    internal::Sha1BlocksShaNi(state_.data(), data, blocks);
    return;
  }
#endif
  internal::Sha1BlocksScalar(state_.data(), data, blocks);
}

Sha1Digest Sha1::Finish() {
  // Append 0x80, pad with zeros to 56 mod 64, then the bit length big-endian.
  std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[72] = {0x80};
  std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  Update(pad, pad_len);
  std::uint8_t len_bytes[8];
  for (int i = 0; i < 8; ++i) {
    len_bytes[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  // Update() counts these bytes into total_bytes_, but the length has already
  // been captured, so the extra accounting is harmless.
  Update(len_bytes, 8);

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest.bytes[i * 4 + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1Digest Sha1::Hash(std::string_view data) {
  Sha1 h;
  h.Update(data);
  return h.Finish();
}

}  // namespace pisrep::util
