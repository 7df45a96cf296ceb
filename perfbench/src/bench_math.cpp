#include "bench_math.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "serve/metrics.hpp"
#include "util/rng.hpp"

namespace seneca::perfbench {

double percentile(std::vector<double> values, double q) {
  return serve::nearest_rank_quantile(std::move(values), q);
}

double latency_ms(const RequestRecord& r) {
  return (r.completed_s - r.scheduled_s) * 1e3;
}

bool served_ok(const RequestRecord& r) {
  return r.status == serve::Status::kOk && r.match;
}

double ok_share(const std::vector<RequestRecord>& sent) {
  if (sent.empty()) return 0.0;
  std::size_t ok = 0;
  for (const auto& r : sent) ok += served_ok(r) ? 1 : 0;
  return static_cast<double>(ok) / static_cast<double>(sent.size());
}

double deadline_met_share(const std::vector<RequestRecord>& sent,
                          double limit_ms) {
  if (sent.empty()) return 0.0;
  std::size_t met = 0;
  for (const auto& r : sent) {
    met += served_ok(r) && latency_ms(r) <= limit_ms ? 1 : 0;
  }
  return static_cast<double>(met) / static_cast<double>(sent.size());
}

double top_rung_share(const std::vector<RequestRecord>& sent) {
  std::size_t ok = 0;
  std::size_t top = 0;
  for (const auto& r : sent) {
    if (!served_ok(r)) continue;
    ++ok;
    top += r.rung == 0 ? 1 : 0;
  }
  return ok == 0 ? 0.0 : static_cast<double>(top) / static_cast<double>(ok);
}

SimRates sim_rates(const std::vector<RequestRecord>& sent,
                   const std::vector<RungPrice>& prices) {
  std::vector<std::uint64_t> frames(prices.size(), 0);
  std::uint64_t total = 0;
  for (const auto& r : sent) {
    if (!served_ok(r) || r.rung < 0 ||
        static_cast<std::size_t>(r.rung) >= prices.size()) {
      continue;
    }
    ++frames[static_cast<std::size_t>(r.rung)];
    ++total;
  }
  if (total == 0) return {};
  double seconds = 0.0;
  double joules = 0.0;
  for (std::size_t i = 0; i < prices.size(); ++i) {
    const double share =
        static_cast<double>(frames[i]) / static_cast<double>(total);
    seconds += share * prices[i].seconds_per_frame;
    joules += share * prices[i].joules_per_frame;
  }
  SimRates out;
  out.fps = seconds > 0.0 ? 1.0 / seconds : 0.0;
  out.fps_per_w = joules > 0.0 ? 1.0 / joules : 0.0;
  return out;
}

double mean_batch_size(const std::vector<RequestRecord>& sent) {
  double requests = 0.0;
  double batches = 0.0;
  for (const auto& r : sent) {
    if (r.status != serve::Status::kOk || r.batch_size == 0) continue;
    requests += 1.0;
    batches += 1.0 / static_cast<double>(r.batch_size);
  }
  return batches > 0.0 ? requests / batches : 0.0;
}

double busy_share(const std::vector<RequestRecord>& sent, double window_s) {
  if (window_s <= 0.0) return 0.0;
  double busy_ms = 0.0;
  for (const auto& r : sent) {
    if (r.status != serve::Status::kOk || r.batch_size == 0) continue;
    busy_ms += r.service_ms / static_cast<double>(r.batch_size);
  }
  return busy_ms / 1e3 / window_s;
}

std::vector<double> fixed_count_arrivals(double rate,
                                         const std::vector<double>& bounds,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out;
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    const double lo = bounds[i];
    const double len = bounds[i + 1] - lo;
    const auto n = static_cast<std::size_t>(std::llround(rate * len));
    const std::size_t first = out.size();
    for (std::size_t k = 0; k < n; ++k) out.push_back(lo + len * rng.uniform());
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
  }
  return out;
}

WindowStats pooled_stats(const std::vector<RequestRecord>& records,
                         serve::Priority latency_lane,
                         const std::vector<TimeRange>& ranges) {
  const auto inside = [&](double t) {
    return std::any_of(ranges.begin(), ranges.end(), [t](const TimeRange& r) {
      return t >= r.begin_s && t < r.end_s;
    });
  };
  double seconds = 0.0;
  double cpu_s = 0.0;
  for (const auto& r : ranges) {
    seconds += r.end_s - r.begin_s;
    cpu_s += r.cpu_s;
  }
  std::size_t ok = 0;
  std::vector<double> latency;
  for (const auto& r : records) {
    if (!served_ok(r)) continue;
    ok += inside(r.completed_s) ? 1 : 0;
    if (r.lane == latency_lane && inside(r.scheduled_s)) {
      latency.push_back(latency_ms(r));
    }
  }
  WindowStats s;
  s.frames_per_s = seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
  s.latency_p50_ms = percentile(latency, 0.5);
  s.latency_p95_ms = percentile(latency, 0.95);
  s.cpu_ms_per_frame = ok > 0 ? cpu_s * 1e3 / static_cast<double>(ok) : 0.0;
  return s;
}

std::vector<std::size_t> least_stolen(const std::vector<double>& steal_s) {
  const double median = percentile(steal_s, 0.5);
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < steal_s.size(); ++i) {
    if (steal_s[i] <= median) kept.push_back(i);
  }
  return kept;
}

}  // namespace seneca::perfbench
