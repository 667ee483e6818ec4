#include "trace.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace e2ebench {

Trace::Trace(bool enabled, uint64_t run_id)
    : enabled_(enabled),
      run_id_(run_id),
      epoch_(std::chrono::steady_clock::now()) {}

double Trace::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void Trace::Add(std::vector<Span>* spans) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.insert(spans_.end(), spans->begin(), spans->end());
  spans->clear();
}

std::vector<Span> Trace::Spans() const {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return out;
}

Recorder::Recorder(Trace* trace, uint32_t root_parent)
    : trace_(trace), root_parent_(root_parent) {}

Recorder::~Recorder() { Flush(); }

uint32_t Recorder::Begin(const char* name) {
  if (!trace_->enabled()) return 0;
  Span span;
  span.run_id = trace_->run_id();
  span.id = trace_->NextId();
  span.parent = current();
  span.name = name;
  span.start = trace_->Now();
  open_.push_back(span);
  return span.id;
}

void Recorder::End() {
  if (!trace_->enabled() || open_.empty()) return;
  Span span = open_.back();
  open_.pop_back();
  span.end = trace_->Now();
  closed_.push_back(span);
}

uint32_t Recorder::current() const {
  return open_.empty() ? root_parent_ : open_.back().id;
}

void Recorder::Flush() {
  if (!closed_.empty()) trace_->Add(&closed_);
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& span : spans) {
    const auto it = index.find(span.parent);
    if (span.parent != 0 && it != index.end()) {
      children[it->second].emplace_back(span.start, span.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Length of the union of the child intervals, clipped to the parent.
    double covered = 0.0;
    double cursor = spans[i].start;
    for (const auto& [start, end] : kids) {
      const double lo = std::max(start, cursor);
      const double hi = std::min(end, spans[i].end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

std::map<std::string, NameTotals> TotalsByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, NameTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    NameTotals& totals = out[spans[i].name];
    ++totals.count;
    totals.self_s += self[i];
    totals.durations.push_back(spans[i].duration());
  }
  return out;
}

std::vector<double> SubtreeSelfTimes(const std::vector<Span>& spans,
                                     const std::vector<uint32_t>& roots) {
  const std::vector<double> self = SelfTimes(spans);
  std::unordered_map<uint32_t, uint32_t> parent;
  for (const Span& span : spans) parent[span.id] = span.parent;
  std::unordered_map<uint32_t, size_t> root_index;
  for (size_t r = 0; r < roots.size(); ++r) root_index[roots[r]] = r;
  std::vector<double> sums(roots.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    for (uint32_t id = spans[i].id; id != 0;) {
      const auto root = root_index.find(id);
      if (root != root_index.end()) {
        sums[root->second] += self[i];
        break;
      }
      const auto it = parent.find(id);
      id = it == parent.end() ? 0 : it->second;
    }
  }
  return sums;
}

}  // namespace e2ebench
