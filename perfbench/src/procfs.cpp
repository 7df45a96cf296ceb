#include "procfs.hpp"

#include <dirent.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace seneca::perfbench {

double parse_stat_cpu_seconds(std::string_view stat, long ticks_per_s) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string_view::npos || ticks_per_s <= 0) {
    throw std::runtime_error("malformed /proc stat text");
  }
  // After "pid (comm)" come state (field 3) ... utime (14) and stime (15).
  std::istringstream rest{std::string(stat.substr(close + 1))};
  std::string field;
  double ticks = 0.0;
  for (int index = 3; index <= 15; ++index) {
    if (!(rest >> field)) {
      throw std::runtime_error("truncated /proc stat text");
    }
    if (index >= 14) ticks += std::strtod(field.c_str(), nullptr);
  }
  return ticks / static_cast<double>(ticks_per_s);
}

double parse_vmhwm_mb(std::string_view status) {
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string_view::npos) {
    throw std::runtime_error("no VmHWM in /proc status text");
  }
  const std::string line(status.substr(at + 6, status.find('\n', at) - at - 6));
  return std::strtod(line.c_str(), nullptr) / 1024.0;  // kB -> MiB
}

double parse_steal_seconds(std::string_view proc_stat, long ticks_per_s) {
  if (proc_stat.substr(0, 4) != "cpu " || ticks_per_s <= 0) {
    throw std::runtime_error("malformed /proc/stat text");
  }
  // cpu  user nice system idle iowait irq softirq steal ...
  const std::size_t eol = proc_stat.find('\n');
  std::istringstream line{std::string(
      proc_stat.substr(4, eol == std::string_view::npos ? eol : eol - 4))};
  double value = 0.0;
  for (int index = 1; index <= 8; ++index) {
    if (!(line >> value)) throw std::runtime_error("truncated /proc/stat text");
  }
  return value / static_cast<double>(ticks_per_s);
}

double sum_stat_cpu_seconds(const std::vector<std::string>& stats,
                            long ticks_per_s) {
  double total = 0.0;
  for (const auto& s : stats) total += parse_stat_cpu_seconds(s, ticks_per_s);
  return total;
}

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

double processes_cpu_seconds(const std::vector<pid_t>& pids) {
  std::vector<std::string> stats;
  stats.reserve(pids.size());
  for (pid_t pid : pids) {
    stats.push_back(read_text("/proc/" + std::to_string(pid) + "/stat"));
  }
  return sum_stat_cpu_seconds(stats, ::sysconf(_SC_CLK_TCK));
}

double host_steal_seconds() {
  return parse_steal_seconds(read_text("/proc/stat"), ::sysconf(_SC_CLK_TCK));
}

double processes_vmhwm_mb(const std::vector<pid_t>& pids) {
  double total = 0.0;
  for (pid_t pid : pids) {
    total += parse_vmhwm_mb(
        read_text("/proc/" + std::to_string(pid) + "/status"));
  }
  return total;
}

std::vector<pid_t> find_processes(const std::string& comm) {
  std::vector<pid_t> out;
  DIR* dir = ::opendir("/proc");
  if (dir == nullptr) return out;
  while (const dirent* entry = ::readdir(dir)) {
    char* end = nullptr;
    const long pid = std::strtol(entry->d_name, &end, 10);
    if (pid <= 0 || *end != '\0') continue;
    std::string name = read_text("/proc/" + std::string(entry->d_name) + "/comm");
    while (!name.empty() && name.back() == '\n') name.pop_back();
    if (name == comm) out.push_back(static_cast<pid_t>(pid));
  }
  ::closedir(dir);
  return out;
}

}  // namespace seneca::perfbench
