#include "util/sha_ni.h"

#ifdef PISREP_SHA_NI
#include <cpuid.h>
#endif

namespace pisrep::util::internal {

bool CpuHasShaNi() {
#ifdef PISREP_SHA_NI
  static const bool kHasShaNi = [] {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
    return (ebx & (1u << 29)) != 0;
  }();
  return kHasShaNi;
#else
  return false;
#endif
}

}  // namespace pisrep::util::internal
