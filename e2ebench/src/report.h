// Result collection for one benchmark run: named metrics with units and
// sample counts, per-phase operation accounting, output checks and host
// facts, printed as human-readable lines plus one machine-readable line.
#ifndef E2EBENCH_REPORT_H_
#define E2EBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

/// \brief True when `name` matches [A-Za-z0-9_.-]+, starts with a letter
/// or digit and is at most 64 characters long.
bool ValidMetricName(const std::string& name);

/// \brief Facts about the machine and build a result was recorded on.
struct HostFacts {
  unsigned nproc = 0;         ///< CPUs this process may run on.
  std::string cpu_model;
  std::string compiler;
  std::string build_type;
  std::string kernel_backend;
  bool optimized = false;     ///< Built with optimization and NDEBUG.
  /// Metrics measured with several threads compare across machines only
  /// when the process had at least as many CPUs as it runs threads.
  bool threads_comparable = false;
};

class Report {
 public:
  /// \brief Records a metric; aborts on an invalid or repeated name (a
  /// programming error in the benchmark, not a measurement).
  void Add(const std::string& name, const std::string& unit, double value,
           size_t samples);
  /// \brief Accounts operations of one phase (requests, admits, ...).
  void Count(const std::string& phase, uint64_t attempted, uint64_t failed);
  /// \brief Records an output check; a failed check fails the run.
  void Check(const std::string& what, bool ok, const std::string& detail = "");

  bool correct() const { return failed_checks_ == 0; }
  bool Has(const std::string& name) const;

  /// \brief Prints the host facts, every metric with unit and sample count,
  /// the phase accounting and the checks, then one line
  /// "E2EBENCH_RESULT {json}" with all of it.
  void Print(const std::string& workload, uint64_t seed, bool trace,
             const HostFacts& host) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    size_t samples = 0;
  };
  struct Phase {
    uint64_t attempted = 0;
    uint64_t failed = 0;
  };
  std::vector<Metric> metrics_;
  std::map<std::string, Phase> phases_;
  std::vector<std::string> check_lines_;
  int failed_checks_ = 0;
};

}  // namespace e2ebench

#endif  // E2EBENCH_REPORT_H_
