// In-memory span tracing for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around each call it makes into a
// library layer; nothing inside the library is instrumented. Each span has
// a name, a start and end time, the id of the span that caused it, and the
// id of the run it belongs to. Every thread records into its own Recorder
// (no locking on the hot path); a Recorder hands its spans to the shared
// Trace when it is destroyed. Spans stay in memory until the run ends.
//
// A span's self time is its duration minus the part of its interval that
// its child spans cover (the union of the children's intervals, so children
// running concurrently on several threads are not counted twice).
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2ebench {

/// \brief One closed span. Times are seconds since the Trace's epoch.
struct Span {
  uint64_t run_id = 0;
  uint32_t id = 0;      ///< 1-based, unique within the run.
  uint32_t parent = 0;  ///< 0 for a root span.
  const char* name = "";  ///< Static string naming the layer call.
  double start = 0.0;
  double end = 0.0;
  double duration() const { return end - start; }
};

/// \brief Span store of one run. Disabled traces record nothing.
class Trace {
 public:
  Trace(bool enabled, uint64_t run_id);
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t run_id() const { return run_id_; }
  double Now() const;
  uint32_t NextId() { return next_id_.fetch_add(1) + 1; }
  /// \brief Appends closed spans (called by Recorder).
  void Add(std::vector<Span>* spans);
  /// \brief Every span handed over so far, ordered by start time.
  std::vector<Span> Spans() const;

 private:
  const bool enabled_;
  const uint64_t run_id_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<uint32_t> next_id_{0};
  mutable std::mutex mu_;  // Guards spans_.
  std::vector<Span> spans_;
};

/// \brief Per-thread span recorder with a stack of open spans. Spans opened
/// with an empty stack get `root_parent` as parent, which lets a client
/// thread hang its spans under a phase span opened by the main thread.
class Recorder {
 public:
  explicit Recorder(Trace* trace, uint32_t root_parent = 0);
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// \brief Opens a span; returns its id (0 when tracing is off).
  uint32_t Begin(const char* name);
  /// \brief Closes the innermost open span.
  void End();
  /// \brief Id of the innermost open span (or the root parent).
  uint32_t current() const;
  /// \brief Hands the closed spans to the Trace now.
  void Flush();

 private:
  Trace* trace_;
  const uint32_t root_parent_;
  std::vector<Span> closed_;
  std::vector<Span> open_;
};

/// \brief RAII span: Begin at construction, End at destruction.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, const char* name) : recorder_(recorder) {
    recorder_->Begin(name);
  }
  ~ScopedSpan() { recorder_->End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;
};

/// \brief Self time of every span, parallel to `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// \brief Totals per span name.
struct NameTotals {
  size_t count = 0;
  double self_s = 0.0;   ///< Sum of self times.
  std::vector<double> durations;
};
std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans);

/// \brief For each id in `roots`, the sum of the self times of that span and
/// all its descendants: the blocking path below a root span opened on one
/// thread. Equals the root's duration when no descendant outlives it. A span
/// counts toward the nearest listed root above it.
std::vector<double> SubtreeSelfTimes(const std::vector<Span>& spans,
                                     const std::vector<uint32_t>& roots);

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
