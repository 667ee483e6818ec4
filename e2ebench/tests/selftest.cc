// Tests of the benchmark's own arithmetic: percentile choice, span self
// times, the metric-name grammar and input determinism.
//
//   python3 e2ebench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "inputs.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

using namespace e2ebench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::printf("FAILED %s:%d: %s\n", __FILE__, __LINE__, #cond);      \
      ++failures;                                                        \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileChoice() {
  CHECK(SamplesBeyond(99.0, 1000) == 10);
  CHECK(SamplesBeyond(99.0, 999) == 9);
  CHECK(SamplesBeyond(50.0, 20) == 10);
  CHECK(SamplesBeyond(50.0, 0) == 0);

  // 1000 samples: p99 has exactly ten beyond it.
  Percentile p = TailPercentile(OneTo(1000));
  CHECK(p.q == 99.0 && p.value == 990.0 && p.samples == 1000 && p.beyond == 10);
  // 999 samples: p99 has nine beyond, so p95 is the highest supported.
  p = TailPercentile(OneTo(999));
  CHECK(p.q == 95.0 && p.beyond == 49 && p.samples == 999);
  // The cap holds even when p99.9 would be supported.
  p = TailPercentile(OneTo(20000));
  CHECK(p.q == 99.0 && p.beyond == 200);
  p = TailPercentile(OneTo(20000), 99.9);
  CHECK(p.q == 99.9 && p.value == 19980.0 && p.beyond == 20);
  // Too few samples for any tail: the median, with its count.
  p = TailPercentile(OneTo(15));
  CHECK(p.q == 50.0 && p.value == 8.0 && p.samples == 15);
  CHECK(Median(OneTo(5)) == 3.0);
  CHECK(Median(OneTo(4)) == 2.5);
  CHECK(Median({}) == 0.0);
}

Span MakeSpan(uint32_t id, uint32_t parent, const char* name, double start,
              double end) {
  Span s;
  s.run_id = 7;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.start = start;
  s.end = end;
  return s;
}

void TestSelfTimes() {
  // Sequential nesting: root [0,10] > a [1,4] > leaf [2,3]; b [5,6].
  std::vector<Span> seq = {MakeSpan(1, 0, "root", 0, 10),
                           MakeSpan(2, 1, "a", 1, 4),
                           MakeSpan(3, 2, "leaf", 2, 3),
                           MakeSpan(4, 1, "b", 5, 6)};
  std::vector<double> self = SelfTimes(seq);
  CHECK(Near(self[0], 6.0));  // 10 - 3 - 1
  CHECK(Near(self[1], 2.0));  // 3 - 1
  CHECK(Near(self[2], 1.0));
  CHECK(Near(self[3], 1.0));
  // On one thread the blocking path's self times add up to the root.
  CHECK(Near(SubtreeSelfTimes(seq, {1})[0], 10.0));
  CHECK(Near(SubtreeSelfTimes(seq, {2})[0], 3.0));
  // A span counts toward the nearest root above it.
  const std::vector<double> nested = SubtreeSelfTimes(seq, {1, 2});
  CHECK(Near(nested[0], 7.0) && Near(nested[1], 3.0));

  // Concurrent children (two client threads) are covered once: the root's
  // self time is its duration minus the union [1,6] of its children.
  std::vector<Span> par = {MakeSpan(1, 0, "root", 0, 10),
                           MakeSpan(2, 1, "c1", 1, 4),
                           MakeSpan(3, 1, "c2", 3, 6),
                           MakeSpan(4, 1, "late", 9, 12)};
  self = SelfTimes(par);
  CHECK(Near(self[0], 10.0 - 5.0 - 1.0));  // late is clipped to [9,10]
  const auto totals = TotalsByName(par);
  CHECK(totals.at("c1").count == 1 && Near(totals.at("c2").self_s, 3.0));

  // Recorder: nested scopes get parent ids, spans share the run id, and a
  // client recorder hangs its spans under the given root parent.
  Trace trace(true, 42);
  uint32_t outer_id = 0;
  {
    Recorder rec(&trace);
    outer_id = rec.Begin("outer");
    { ScopedSpan inner(&rec, "inner"); }
    rec.End();
  }
  { Recorder client(&trace, outer_id); ScopedSpan s(&client, "client"); }
  const std::vector<Span> spans = trace.Spans();
  CHECK(spans.size() == 3);
  for (const Span& s : spans) {
    CHECK(s.run_id == 42 && s.end >= s.start);
    if (std::string(s.name) != "outer") CHECK(s.parent == outer_id);
  }

  // A disabled trace records nothing and hands out no ids.
  Trace off(false, 1);
  {
    Recorder rec(&off);
    CHECK(rec.Begin("x") == 0);
    rec.End();
  }
  CHECK(off.Spans().empty());
}

void TestMetricNames() {
  CHECK(ValidMetricName("core.sweep_p50_s"));
  CHECK(ValidMetricName("a-b.c_d"));
  CHECK(ValidMetricName("9lives"));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName(".hidden"));
  CHECK(!ValidMetricName("_x"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("a/b"));
  CHECK(!ValidMetricName("ü"));
  CHECK(ValidMetricName(std::string(64, 'a')));
  CHECK(!ValidMetricName(std::string(65, 'a')));
}

void TestInputDeterminism() {
  CsvShape shape;
  shape.rows = 300;
  const std::string a = GenerateCsvText(shape, 5);
  CHECK(a == GenerateCsvText(shape, 5));
  CHECK(a != GenerateCsvText(shape, 6));
  CHECK(a.rfind("f00,", 0) == 0);

  const auto x = GenerateAdultInputs(5, 1);
  const auto y = GenerateAdultInputs(5, 1);
  const auto z = GenerateAdultInputs(6, 1);
  CHECK(x.ok() && y.ok() && z.ok());
  if (x.ok() && y.ok() && z.ok()) {
    const AdultInputs& xi = x.ValueOrDie();
    CHECK(xi.features.rows() == 15682 && xi.sensitive.categorical.size() == 5);
    const uint64_t fx = Fingerprint(xi.features, xi.sensitive);
    CHECK(fx == Fingerprint(y.ValueOrDie().features, y.ValueOrDie().sensitive));
    CHECK(fx != Fingerprint(z.ValueOrDie().features, z.ValueOrDie().sensitive));
  }
}

}  // namespace

int main() {
  TestPercentileChoice();
  TestSelfTimes();
  TestMetricNames();
  TestInputDeterminism();
  std::printf("%s (%d failed checks)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures == 0 ? 0 : 1;
}
