#pragma once
// The benchmark's own arithmetic: how per-request records become the
// end-to-end metrics. Kept apart from the workload code so the
// definitions (percentile rule, share denominators, per-frame simulated
// pricing) are unit-tested on their own (tests/bench_math_test.cpp).

#include <cstdint>
#include <vector>

#include "serve/request.hpp"

namespace seneca::perfbench {

/// Nearest-rank percentile, q in [0, 1]: serve::nearest_rank_quantile, the
/// serving layer's own rule, so the benchmark and the server agree on what
/// "p95" means. Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

/// One request as the benchmark saw it. Times are seconds on the run's
/// steady-clock epoch.
struct RequestRecord {
  serve::Priority lane = serve::Priority::kBatch;
  int slice = 0;
  double scheduled_s = 0.0;  // when the request was due to be sent
  double submit_begin_s = 0.0;
  double submit_end_s = 0.0;
  double completed_s = 0.0;
  serve::Status status = serve::Status::kRejected;
  bool match = false;  // kOk and output bytes equal the scalar reference
  int rung = -1;       // ladder index of the model that served it
  double queue_ms = 0.0;
  double service_ms = 0.0;
  std::uint32_t batch_size = 1;
};

/// Latency from the scheduled send time, so a stalled generator's delay
/// counts against the requests it held back.
double latency_ms(const RequestRecord& r);

/// Served kOk with the reference bytes: the only outcome that counts as OK.
bool served_ok(const RequestRecord& r);

/// OK requests over requests sent. Refused, expired, errored and
/// mismatched requests stay in the denominator.
double ok_share(const std::vector<RequestRecord>& sent);

/// Requests served OK within `limit_ms` of their scheduled send time, over
/// requests sent; every failure is a miss.
double deadline_met_share(const std::vector<RequestRecord>& sent,
                          double limit_ms);

/// Share of OK requests served by ladder rung 0. 0 when nothing was OK.
double top_rung_share(const std::vector<RequestRecord>& sent);

/// Simulated price of one frame on one ladder rung
/// (platform::estimate_inference_energy at the rung's worker count).
struct RungPrice {
  double seconds_per_frame = 0.0;
  double joules_per_frame = 0.0;
};

struct SimRates {
  double fps = 0.0;          // OK frames / summed simulated seconds
  double fps_per_w = 0.0;    // OK frames / summed joules
};

/// Prices every OK frame at the rung that served it. Computed from the
/// rung mix (share of frames per rung), so a fixed mix gives bit-identical
/// rates whatever the frame count.
SimRates sim_rates(const std::vector<RequestRecord>& sent,
                   const std::vector<RungPrice>& prices);

/// Mean micro-batch size: requests over batches, where each OK request of
/// a batch of b contributes 1/b batches.
double mean_batch_size(const std::vector<RequestRecord>& sent);

/// Summed batch service time (each batch counted once) over `window_s`.
double busy_share(const std::vector<RequestRecord>& sent, double window_s);

/// Open-loop arrival offsets (seconds) over consecutive segments: segment
/// i = [bounds[i], bounds[i+1]) receives exactly round(rate * length)
/// arrivals at sorted uniform times, which is a Poisson process at `rate`
/// conditioned on its count per segment. Every measured interval is thus
/// offered the same load, and arrivals keep their Poisson burstiness.
std::vector<double> fixed_count_arrivals(double rate,
                                         const std::vector<double>& bounds,
                                         std::uint64_t seed);

/// A stretch of the measured window, and the CPU time the benchmark and
/// worker processes spent in it.
struct TimeRange {
  double begin_s = 0.0;
  double end_s = 0.0;
  double cpu_s = 0.0;
};

/// Timing figures of one or more ranges of the measured window.
struct WindowStats {
  double frames_per_s = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double cpu_ms_per_frame = 0.0;
};

/// Figures pooled over disjoint `ranges`: OK frames completed in them per
/// second of their summed length over both lanes, their summed CPU time per
/// such frame, and nearest-rank latency percentiles over all of
/// `latency_lane`'s OK requests scheduled in them.
WindowStats pooled_stats(const std::vector<RequestRecord>& records,
                         serve::Priority latency_lane,
                         const std::vector<TimeRange>& ranges);

/// Indices of the intervals whose host steal time is at most the median
/// interval's (nearest rank): at least half of them, and all of them on a
/// host that steals nothing. The choice reads only the hypervisor's
/// accounting, never the program's figures, so a slowdown of the program
/// shows in the kept intervals like anywhere else.
std::vector<std::size_t> least_stolen(const std::vector<double>& steal_s);

}  // namespace seneca::perfbench
