#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace pisrep::perfbench {

void Report::Check(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

void Report::Failed(std::uint64_t n, std::string_view what) {
  if (n == 0) return;
  failed_ += n;
  std::fprintf(stderr, "failed operations: %llu (%.*s)\n",
               static_cast<unsigned long long>(n),
               static_cast<int>(what.size()), what.data());
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  std::size_t index = rank == 0 ? 0 : rank - 1;
  if (index >= samples.size()) index = samples.size() - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(index),
                   samples.end());
  return samples[index];
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MustOk(const util::Status& status, std::string_view what) {
  if (status.ok()) return;
  std::fprintf(stderr, "set-up failed: %.*s: %s\n",
               static_cast<int>(what.size()), what.data(),
               status.ToString().c_str());
  std::exit(2);
}

}  // namespace pisrep::perfbench
