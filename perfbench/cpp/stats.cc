#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cpp/bench.h"

namespace perfbench {

namespace {

/// 1-based nearest rank of `pct` among `n` samples.
size_t NearestRank(size_t n, double pct) {
  double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  size_t rank = NearestRank(samples.size(), pct);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 50.0);
}

size_t SamplesBeyond(size_t n, double pct) {
  if (n == 0) return 0;
  return n - NearestRank(n, pct);
}

size_t MinSamplesForTail(double pct) {
  size_t n = kTailMinBeyond;
  while (SamplesBeyond(n, pct) < kTailMinBeyond) ++n;
  return n;
}

size_t QuietWindowsKept(size_t windows) {
  return static_cast<size_t>(
      std::ceil(static_cast<double>(windows) * kQuietShare - 1e-9));
}

QuietWindows SelectQuietWindows(const TimedSamples& timed,
                                Clock::time_point start, size_t window_ops) {
  std::vector<std::pair<Clock::time_point, double>> samples = timed.samples;
  std::stable_sort(samples.begin(), samples.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  struct Window {
    double median_ms;
    double seconds;
    size_t first;
  };
  std::vector<Window> windows;
  for (size_t first = 0; window_ops > 0 && first + window_ops <= samples.size();
       first += window_ops) {
    std::vector<double> ms;
    for (size_t i = first; i < first + window_ops; ++i) {
      ms.push_back(samples[i].second);
    }
    const Clock::time_point from =
        first == 0 ? start : samples[first - 1].first;
    const Clock::time_point to = samples[first + window_ops - 1].first;
    windows.push_back({Median(std::move(ms)),
                       std::chrono::duration<double>(to - from).count(), first});
  }
  std::stable_sort(windows.begin(), windows.end(),
                   [](const Window& a, const Window& b) {
                     return a.median_ms < b.median_ms;
                   });
  QuietWindows out;
  out.windows = windows.size();
  out.kept = QuietWindowsKept(windows.size());
  double seconds = 0.0;
  for (size_t w = 0; w < out.kept; ++w) {
    seconds += windows[w].seconds;
    for (size_t i = windows[w].first; i < windows[w].first + window_ops; ++i) {
      out.ms.push_back(samples[i].second);
    }
  }
  if (seconds > 0.0) {
    out.ops_per_s = static_cast<double>(out.ms.size()) / seconds;
  }
  return out;
}

size_t MinOpsForQuietTail(double pct, size_t window_ops) {
  const size_t needed = MinSamplesForTail(pct);
  size_t windows = 1;
  while (QuietWindowsKept(windows) * window_ops < needed) ++windows;
  return windows * window_ops;
}

std::string JsonString(const std::string& s) {
  std::string out;
  bdi::serve::AppendJsonString(&out, s);
  return out;
}

std::string JsonNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

}  // namespace perfbench
