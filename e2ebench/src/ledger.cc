#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstdio>

#include "stats.h"
#include "workloads.h"

namespace e2ebench {

std::vector<int> UsableCpuList() {
  // Read once, before any thread is pinned: a pinned thread's own mask
  // would name only its one CPU.
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

void PinCurrentThread(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (cpu >= 0) {
    CPU_SET(cpu, &set);
  } else {
    for (const int c : UsableCpuList()) CPU_SET(c, &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

PassLedger::PassLedger(const WorkloadContext& ctx, int min_passes)
    : ctx_(ctx),
      min_passes_(std::max(min_passes, 2)),
      cpus_(UsableCpuList()),
      traced_(true, ctx.seed),
      untraced_(false, ctx.seed) {}

bool PassLedger::More() const {
  // A traced run always completes its last traced/untraced pair.
  if (ctx_.trace && passes_ % 2 == 1) return true;
  return passes_ < min_passes_ || clock_.ElapsedSeconds() < ctx_.seconds;
}

uint64_t PassLedger::NextInitSeed() const {
  const int index = ctx_.trace ? passes_ / 2 : passes_;
  return kFirstInitSeed + static_cast<uint64_t>(index);
}

Trace* PassLedger::NextTrace() {
  // Both passes of a traced pair run on the same CPU, so the pair differs
  // only by tracing.
  if (!cpus_.empty()) {
    const int slot = ctx_.trace ? passes_ / 2 : passes_;
    PinCurrentThread(cpus_[static_cast<size_t>(slot) % cpus_.size()]);
  }
  // With tracing on, passes come in pairs, one traced and one untraced, in
  // the order T U U T T U ...: alternating which goes first cancels a
  // machine that drifts faster or slower during the run.
  const int phase = passes_ % 4;
  current_traced_ = ctx_.trace && (phase == 0 || phase == 3);
  return current_traced_ ? &traced_ : &untraced_;
}

void PassLedger::EndPass(double blocking_s, uint32_t blocking_root) {
  std::printf("pass %d%s: blocking path %.6f s\n", passes_,
              current_traced_ ? " (traced)" : "", blocking_s);
  ++passes_;
  // Hand freed memory back between passes. Each pass starts and ends its
  // own client threads, and without this the per-thread heaps they leave
  // behind pile up over a run, so the process peak would grow with the pass
  // count rather than measure one pass.
  malloc_trim(0);
  if (current_traced_) {
    traced_blocking_.push_back(blocking_s);
    traced_roots_.push_back(blocking_root);
  } else {
    untraced_blocking_.push_back(blocking_s);
  }
}

namespace {

constexpr size_t kCostSpans = 100000;

// Cost of recording one span (Begin + End), timed over kCostSpans spans on
// a scratch trace: the overhead tracing adds per layer call, free of the
// pass-to-pass noise the traced/untraced comparison carries.
double SpanCostNs() {
  Trace scratch(true, 0);
  fairkm::Timer timer;
  {
    Recorder rec(&scratch);
    for (size_t i = 0; i < kCostSpans; ++i) {
      rec.Begin("cost");
      rec.End();
    }
  }
  return timer.ElapsedSeconds() / kCostSpans * 1e9;
}

}  // namespace

double SelfPerPass(const std::vector<Span>& spans, const std::string& name,
                   int passes) {
  if (passes <= 0) return 0.0;
  const auto totals = TotalsByName(spans);
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.self_s / passes;
}

void PassLedger::ReportLayers(Report* report,
                              const std::vector<std::string>& layer_spans) const {
  const std::vector<Span> spans = traced_.Spans();
  const int traced = traced_passes();
  const auto totals = TotalsByName(spans);
  for (const std::string& name : layer_spans) {
    const auto it = totals.find(name);
    const double self = it == totals.end() ? 0.0 : it->second.self_s;
    const size_t count = it == totals.end() ? 0 : it->second.count;
    report->Add(name + "_s", "s", traced > 0 ? self / traced : 0.0, count);
  }
  // Pair i (passes 2i and 2i+1) is one traced and one untraced pass with
  // one init seed, so within a pair the work is the same and only tracing
  // differs. Coverage is the traced pass's summed self times on the
  // blocking path over its untraced partner's time; overhead compares the
  // two passes' times. Both are medians over pairs.
  const std::vector<double> blocking_self =
      SubtreeSelfTimes(spans, traced_roots_);
  std::vector<double> coverage, overhead;
  const size_t pairs =
      std::min(traced_blocking_.size(), untraced_blocking_.size());
  for (size_t i = 0; i < pairs; ++i) {
    if (untraced_blocking_[i] <= 0) continue;
    coverage.push_back(blocking_self[i] / untraced_blocking_[i]);
    overhead.push_back(traced_blocking_[i] / untraced_blocking_[i] - 1.0);
  }
  report->Add("trace.blocking_share", "share", Median(coverage),
              coverage.size());
  report->Add("trace.overhead_share", "share", Median(overhead),
              overhead.size());
  report->Add("trace.spans", "count", static_cast<double>(spans.size()),
              static_cast<size_t>(traced));
  report->Add("trace.span_cost_ns", "ns", SpanCostNs(), kCostSpans);
}

void AddLatencyMetrics(Report* report, const std::string& prefix,
                       const std::vector<double>& seconds, double scale,
                       const std::string& unit) {
  std::vector<double> scaled(seconds);
  for (double& v : scaled) v *= scale;
  const Percentile tail = TailPercentile(scaled);
  std::printf("%s_p99_%s is p%g of %zu samples, %zu beyond it\n",
              prefix.c_str(), unit.c_str(), tail.q, tail.samples, tail.beyond);
  report->Add(prefix + "_p50_" + unit, unit, Median(scaled), scaled.size());
  report->Add(prefix + "_p99_" + unit, unit, tail.value, tail.samples);
}

void AddSweepLedger(Report* report, const PassLedger& ledger,
                    const std::vector<double>& sweeps,
                    const std::vector<double>& candidates,
                    const std::vector<double>& pruned) {
  const std::vector<Span> spans = ledger.TracedSpans();
  const auto totals = TotalsByName(spans);
  const auto sweep = totals.find("core.sweep");
  const std::vector<double> durations =
      sweep == totals.end() ? std::vector<double>{} : sweep->second.durations;
  report->Add("core.sweep_p50_s", "s", Median(durations), durations.size());
  report->Add("core.sweep_total_s", "s",
              SelfPerPass(spans, "core.sweep", ledger.traced_passes()),
              static_cast<size_t>(ledger.traced_passes()));
  report->Add("core.sweeps", "count", Median(sweeps), sweeps.size());
  report->Add("core.candidates", "count", Median(candidates),
              candidates.size());
  report->Add("core.pruned_candidates", "count", Median(pruned),
              pruned.size());
  const double c = Median(candidates);
  report->Add("core.pruned_fraction", "share", c > 0 ? Median(pruned) / c : 0.0,
              candidates.size());
}

void ServeLedger::Add(const fairkm::serve::ServeMetrics& before,
                      const fairkm::serve::ServeMetrics& after) {
  sum_.requests += after.requests - before.requests;
  sum_.errors += after.errors - before.errors;
  sum_.points += after.points - before.points;
  sum_.batches += after.batches - before.batches;
  sum_.busy_seconds += after.busy_seconds - before.busy_seconds;
  sum_.peak_in_flight = std::max(sum_.peak_in_flight, after.peak_in_flight);
  sum_.not_ready += after.not_ready - before.not_ready;
  sum_.shed_queue_full += after.shed_queue_full - before.shed_queue_full;
  sum_.shed_queue_timeout +=
      after.shed_queue_timeout - before.shed_queue_timeout;
  sum_.deadline_exceeded += after.deadline_exceeded - before.deadline_exceeded;
  sum_.cache_hits += after.cache_hits - before.cache_hits;
  sum_.cache_misses += after.cache_misses - before.cache_misses;
}

void ServeLedger::Report(e2ebench::Report* report,
                         const std::vector<double>& latencies, double wall_s,
                         int clients, int passes) const {
  const size_t n = static_cast<size_t>(passes);
  double latency_sum = 0.0;
  for (const double l : latencies) latency_sum += l;
  const double per_pass = passes > 0 ? 1.0 / passes : 0.0;
  report->Add("serve.assign_pps", "1/s",
              wall_s > 0 ? static_cast<double>(sum_.points) / wall_s : 0.0, n);
  AddLatencyMetrics(report, "serve.assign", latencies, 1e6, "us");
  report->Add("serve.busy_s", "s", sum_.busy_seconds * per_pass, n);
  report->Add("serve.busy_share", "share",
              wall_s > 0 ? sum_.busy_seconds / (clients * wall_s) : 0.0, n);
  report->Add("serve.wait_us", "us",
              sum_.requests > 0
                  ? (latency_sum - sum_.busy_seconds) / sum_.requests * 1e6
                  : 0.0,
              static_cast<size_t>(sum_.requests));
  report->Add("serve.batches", "count", sum_.batches * per_pass, n);
  report->Add("serve.avg_batch_points", "count",
              sum_.batches > 0
                  ? static_cast<double>(sum_.points) / sum_.batches
                  : 0.0,
              static_cast<size_t>(sum_.batches));
  report->Add("serve.peak_in_flight", "count",
              static_cast<double>(sum_.peak_in_flight), n);
  report->Add("serve.shed", "count",
              static_cast<double>(sum_.not_ready + sum_.shed_queue_full +
                                  sum_.shed_queue_timeout),
              n);
  report->Add("serve.deadline_exceeded", "count",
              static_cast<double>(sum_.deadline_exceeded), n);
  report->Add("serve.cache_hits", "count", static_cast<double>(sum_.cache_hits),
              n);
  report->Add("serve.cache_misses", "count",
              static_cast<double>(sum_.cache_misses), n);
}

}  // namespace e2ebench
