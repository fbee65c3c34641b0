#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// --- Tracer ------------------------------------------------------------------

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Buffer& Tracer::local() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1 << 12);
    buffer = fresh.get();
    const std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(fresh));
  }
  return *buffer;
}

int Tracer::intern(const char* name) {
  // Span names are string literals: cache the pointer -> id mapping per
  // thread so the shared table is locked once per name and thread.
  thread_local std::vector<std::pair<const char*, int>> cache;
  for (const auto& [ptr, id] : cache) {
    if (ptr == name) return id;
  }
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(names_.begin(), names_.end(), name);
    id = static_cast<int>(it - names_.begin());
    if (it == names_.end()) names_.emplace_back(name);
  }
  cache.emplace_back(name, id);
  return id;
}

int Tracer::begin(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  Buffer& b = local();
  SpanRecord s;
  s.name = intern(name);
  s.parent = b.open.empty() ? -1 : b.open.back();
  s.op = op;
  s.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - epoch_)
                   .count();
  b.spans.push_back(s);
  const int handle = static_cast<int>(b.spans.size() - 1);
  b.open.push_back(handle);
  return handle;
}

void Tracer::end(int handle) {
  if (handle < 0) return;
  Buffer& b = local();
  b.spans[static_cast<std::size_t>(handle)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  b.open.pop_back();
}

std::map<std::string, LayerTotals> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTotals> out;
  for (const auto& buffer : buffers_) {
    const auto& spans = buffer->spans;
    std::vector<double> child_s(spans.size(), 0.0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0) {
        child_s[static_cast<std::size_t>(s.parent)] +=
            1e-9 * static_cast<double>(s.end_ns - s.start_ns);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double dur =
          1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      LayerTotals& t = out[names_[static_cast<std::size_t>(spans[i].name)]];
      ++t.count;
      t.total_s += dur;
      t.self_s += dur - child_s[i];
    }
  }
  return out;
}

double self_us(const std::map<std::string, LayerTotals>& t,
               const std::string& name) {
  const auto it = t.find(name);
  if (it == t.end() || it->second.count == 0) return 0.0;
  return 1e6 * it->second.self_s / static_cast<double>(it->second.count);
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
