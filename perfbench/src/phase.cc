#include "phase.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <system_error>

namespace pisrep::perfbench {

// util::Rng::NextZipf walks the whole support on every draw; set-up draws
// hundreds of thousands of times from 20k programs, so the CDF is built once.
ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::Next(util::Rng* rng) const {
  double u = rng->NextDouble();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double Measurements::Percentile(const std::string& name, double q) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : perfbench::Percentile(it->second, q);
}

double Measurements::Ratio(const std::string& name) const {
  auto it = ratios_.find(name);
  if (it == ratios_.end() || it->second.second == 0) return 0.0;
  return it->second.first / it->second.second;
}

void ResetDirectory(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  if (!ec) std::filesystem::create_directories(dir, ec);
  if (ec) {
    MustOk(util::Status::Internal("cannot reset " + dir + ": " +
                                  ec.message()),
           "scratch directory");
  }
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

}  // namespace pisrep::perfbench
