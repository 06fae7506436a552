#ifndef PISREP_UTIL_SHA1_H_
#define PISREP_UTIL_SHA1_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pisrep::util {

/// A 160-bit SHA-1 digest. The paper (§3.3) identifies each software
/// executable by "a generated SHA-1 digest" over the file content; this is
/// that primitive, implemented from scratch (FIPS 180-1).
struct Sha1Digest {
  std::array<std::uint8_t, 20> bytes{};

  /// Lowercase hex rendering, 40 characters.
  std::string ToHex() const;

  friend bool operator==(const Sha1Digest&, const Sha1Digest&) = default;
  /// Lexicographic order, usable as a map key.
  friend auto operator<=>(const Sha1Digest&, const Sha1Digest&) = default;
};

/// Incremental SHA-1 hasher. It names every executable on the client's
/// read path (the digest is computed while the launch waits), places keys
/// on the cluster's hash ring and fingerprints anti-entropy rows. Whole
/// 64-byte blocks compress straight from the caller's buffer through the
/// SHA-NI instructions when the CPU has them (util/sha_ni.h), through the
/// portable FIPS 180-1 routine otherwise; both give the same digest.
///
/// Usage:
///   Sha1 h;
///   h.Update(chunk1);
///   h.Update(chunk2);
///   Sha1Digest d = h.Finish();
class Sha1 {
 public:
  Sha1();

  /// Absorbs `data` into the hash state.
  void Update(std::string_view data);
  void Update(const std::uint8_t* data, std::size_t len);

  /// Completes the hash and returns the digest. The hasher must not be
  /// updated afterwards; construct a fresh one instead.
  Sha1Digest Finish();

  /// One-shot convenience.
  static Sha1Digest Hash(std::string_view data);

 private:
  /// Absorbs `blocks` consecutive 64-byte blocks, dispatching to the
  /// hardware (SHA-NI) compression when the CPU has it.
  void ProcessBlocks(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 5> state_;
  std::uint64_t total_bytes_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_;
};

/// Hash support for unordered containers keyed by digest.
struct Sha1DigestHash {
  std::size_t operator()(const Sha1Digest& d) const {
    std::size_t h = 0;
    for (std::size_t i = 0; i < sizeof(std::size_t); ++i) {
      h = (h << 8) | d.bytes[i];
    }
    return h;
  }
};

}  // namespace pisrep::util

#endif  // PISREP_UTIL_SHA1_H_
