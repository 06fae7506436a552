#ifndef PISREP_UTIL_SHA256_H_
#define PISREP_UTIL_SHA256_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace pisrep::util {

/// A 256-bit SHA-256 digest. Used for password hashing and the peppered
/// e-mail hash (§2.2): credentials deserve a stronger primitive than the
/// SHA-1 used for software fingerprints.
struct Sha256Digest {
  std::array<std::uint8_t, 32> bytes{};

  /// Lowercase hex rendering, 64 characters.
  std::string ToHex() const;

  friend bool operator==(const Sha256Digest&, const Sha256Digest&) = default;
  friend auto operator<=>(const Sha256Digest&, const Sha256Digest&) = default;
};

/// Incremental SHA-256 hasher (FIPS 180-4), implemented from scratch.
class Sha256 {
 public:
  Sha256();

  /// Absorbs `data` into the hash state.
  void Update(std::string_view data);
  void Update(const std::uint8_t* data, std::size_t len);

  /// Completes the hash; the hasher must not be reused afterwards.
  Sha256Digest Finish();

  /// One-shot convenience.
  static Sha256Digest Hash(std::string_view data);

 private:
  /// Absorbs `blocks` consecutive 64-byte blocks, dispatching to the
  /// hardware (SHA-NI) compression when the CPU has it.
  void ProcessBlocks(const std::uint8_t* data, std::size_t blocks);

  std::array<std::uint32_t, 8> state_;
  std::uint64_t total_bytes_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_;
};

}  // namespace pisrep::util

#endif  // PISREP_UTIL_SHA256_H_
