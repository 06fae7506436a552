#ifndef PISREP_UTIL_SHA_NI_H_
#define PISREP_UTIL_SHA_NI_H_

// Internal to the hashers: the block compression routines behind Sha1 and
// Sha256, and the one CPUID gate that picks between them. Callers hash
// through util/sha1.h and util/sha256.h; this header exists so tests and
// microbenchmarks can run the scalar and hardware routines side by side on
// any host.

#include <cstddef>
#include <cstdint>

// The SHA-NI routines are compiled only where the toolchain can emit the
// instructions; they are selected at runtime, so the same binary still runs
// on older cores through the scalar routines.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PISREP_SHA_NI 1
#endif

namespace pisrep::util::internal {

/// True when the CPU implements the SHA extensions (CPUID leaf 7, EBX bit
/// 29). Probed once per process; always false off x86-64.
bool CpuHasShaNi();

/// Each routine absorbs `blocks` consecutive 64-byte blocks of `data` into
/// `state`, kept in the portable word order (A..E for SHA-1, A..H for
/// SHA-256), so the scalar and hardware routines are interchangeable
/// mid-stream.
void Sha1BlocksScalar(std::uint32_t state[5], const std::uint8_t* data,
                      std::size_t blocks);
void Sha256BlocksScalar(std::uint32_t state[8], const std::uint8_t* data,
                        std::size_t blocks);

#ifdef PISREP_SHA_NI
/// Call only when CpuHasShaNi() holds.
void Sha1BlocksShaNi(std::uint32_t state[5], const std::uint8_t* data,
                     std::size_t blocks);
void Sha256BlocksShaNi(std::uint32_t state[8], const std::uint8_t* data,
                       std::size_t blocks);
#endif

}  // namespace pisrep::util::internal

#endif  // PISREP_UTIL_SHA_NI_H_
