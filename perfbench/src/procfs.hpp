#pragma once
// /proc readers for the resource metrics: CPU time and peak resident set of
// the benchmark process and of every worker process it drives, and the
// machine's steal time. The parsers take file contents so the tests can
// feed them fixtures.

#include <sys/types.h>

#include <string>
#include <string_view>
#include <vector>

namespace seneca::perfbench {

/// utime + stime, in seconds, from the text of /proc/<pid>/stat. The
/// command field may hold spaces and parentheses, so fields are counted
/// from its last ')'. Throws std::runtime_error on malformed text.
double parse_stat_cpu_seconds(std::string_view stat, long ticks_per_s);

/// VmHWM from the text of /proc/<pid>/status, in MiB. Throws when absent.
double parse_vmhwm_mb(std::string_view status);

/// CPU seconds summed over several /proc/<pid>/stat texts.
double sum_stat_cpu_seconds(const std::vector<std::string>& stats,
                            long ticks_per_s);

/// Steal time in seconds, summed over all CPUs, from the text of
/// /proc/stat (the eighth value of its aggregate "cpu" line): time the
/// hypervisor ran something else while this machine's virtual CPUs were
/// ready to run. Throws std::runtime_error on malformed text.
double parse_steal_seconds(std::string_view proc_stat, long ticks_per_s);

/// Whole-file read; empty when the file cannot be opened.
std::string read_text(const std::string& path);

/// CPU seconds of the given processes (each /proc/<pid>/stat read once).
double processes_cpu_seconds(const std::vector<pid_t>& pids);

/// The machine's steal time so far, in seconds (0 on bare metal).
double host_steal_seconds();

/// VmHWM of the given processes, summed, in MiB.
double processes_vmhwm_mb(const std::vector<pid_t>& pids);

/// Pids whose /proc/<pid>/comm equals `comm`.
std::vector<pid_t> find_processes(const std::string& comm);

}  // namespace seneca::perfbench
