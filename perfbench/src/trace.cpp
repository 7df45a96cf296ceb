#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace seneca::perfbench {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

std::uint32_t Tracer::next_id() {
  std::lock_guard lock(mutex_);
  return next_id_++;
}

std::uint32_t Tracer::add(Span s) {
  std::lock_guard lock(mutex_);
  if (s.id == 0) s.id = next_id_++;
  const std::uint32_t id = s.id;
  spans_.push_back(std::move(s));
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard lock(mutex_);
  return spans_;
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::unordered_map<std::uint32_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const Span& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(s.begin, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point cursor = s.begin;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end);
      if (e <= b) continue;
      covered += us_between(b, e);
      cursor = e;
    }
    self[i] = std::max(0.0, us_between(s.begin, s.end) - covered);
  }
  return self;
}

void Tracer::write_chrome(const std::string& path,
                          const std::map<std::string, double>& meta) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_us(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%llu,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%u,"
                 "\"parent\":%u,\"self_us\":%.3f",
                 i == 0 ? "" : ",\n", json_escape(s.name).c_str(),
                 static_cast<unsigned long long>(s.trace_id),
                 us_between(epoch_, s.begin), us_between(s.begin, s.end),
                 s.id, s.parent, self[i]);
    for (const auto& [key, value] : s.attrs) {
      std::fprintf(f, ",\"%s\":%.17g", json_escape(key).c_str(), value);
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n],\"otherData\":{");
  bool first = true;
  for (const auto& [key, value] : meta) {
    std::fprintf(f, "%s\"%s\":%.17g", first ? "" : ",",
                 json_escape(key).c_str(), value);
    first = false;
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, double> Tracer::self_ms_by_name() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_us(all);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += self[i] / 1e3;
  }
  return out;
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::uint64_t trace_id,
                     std::uint32_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.trace_id = trace_id;
  span_.name = std::move(name);
  span_.begin = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end = Clock::now();
  tracer_->add(std::move(span_));
}

void Tracer::Scope::attr(std::string key, double value) {
  if (tracer_ != nullptr) span_.attrs.emplace_back(std::move(key), value);
}

}  // namespace seneca::perfbench
