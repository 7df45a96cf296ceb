#pragma once
// In-memory span recorder for the traced run. Spans are recorded only in
// the benchmark's own code, around each call into a layer of the program:
// name, begin, end, parent span and a trace id (one per request; setup and
// replay spans use fixed ids). They are written at exit as Chrome
// trace-event JSON, which chrome://tracing and Perfetto open.

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace seneca::perfbench {

using Clock = std::chrono::steady_clock;

/// Trace ids of the non-request timelines.
constexpr std::uint64_t kSetupTrace = 1;
constexpr std::uint64_t kReplayTrace = 2;
constexpr std::uint64_t kFirstRequestTrace = 16;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::uint64_t trace_id = 0;
  std::string name;
  Clock::time_point begin{};
  Clock::time_point end{};
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  /// A fresh span id (ids start at 1); reserve one before the span's
  /// children are recorded. Thread-safe.
  std::uint32_t next_id();
  /// Stores a finished span; assigns an id when `s.id` is 0. Thread-safe.
  std::uint32_t add(Span s);

  std::vector<Span> spans() const;

  /// Writes every span as a complete ("X") event on the track of its trace
  /// id, with its parent, attributes and self time as args. `meta` lands in
  /// otherData. Throws std::runtime_error when the file cannot be written.
  void write_chrome(const std::string& path,
                    const std::map<std::string, double>& meta) const;

  /// Summed self time per span name, in ms.
  std::map<std::string, double> self_ms_by_name() const;

  /// RAII span: begins at construction, recorded at destruction. A null
  /// tracer makes it a no-op, so untraced runs pay nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t trace_id,
          std::uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint32_t id() const { return span_.id; }
    void attr(std::string key, double value);

   private:
    Tracer* tracer_;
    Span span_;
  };

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint32_t next_id_ = 1;
};

/// Self time of each span in µs: its duration minus the part of it that
/// the union of its children's intervals covers. Indexed like `spans`.
std::vector<double> self_times_us(const std::vector<Span>& spans);

}  // namespace seneca::perfbench
