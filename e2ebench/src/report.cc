#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace e2ebench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

void Report::Add(const std::string& name, const std::string& unit,
                 double value, size_t samples) {
  if (!ValidMetricName(name) || Has(name)) {
    std::fprintf(stderr, "e2ebench: invalid or repeated metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  metrics_.push_back({name, unit, value, samples});
}

void Report::Count(const std::string& phase, uint64_t attempted,
                   uint64_t failed) {
  Phase& p = phases_[phase];
  p.attempted += attempted;
  p.failed += failed;
}

void Report::Check(const std::string& what, bool ok, const std::string& detail) {
  if (!ok) ++failed_checks_;
  check_lines_.push_back(std::string(ok ? "ok    " : "FAILED") + "  " + what +
                         (detail.empty() ? "" : "  (" + detail + ")"));
}

bool Report::Has(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

void Report::Print(const std::string& workload, uint64_t seed, bool trace,
                   const HostFacts& host) const {
  std::printf("workload %s  seed %llu  trace %d\n", workload.c_str(),
              static_cast<unsigned long long>(seed), trace ? 1 : 0);
  std::printf(
      "host: nproc %u, cpu '%s', compiler %s, build %s, kernels %s, "
      "thread metrics comparable: %s\n",
      host.nproc, host.cpu_model.c_str(), host.compiler.c_str(),
      host.build_type.c_str(), host.kernel_backend.c_str(),
      host.threads_comparable ? "yes" : "no (nproc < 4)");
  std::printf("%-32s %18s  %-8s %s\n", "metric", "value", "unit", "samples");
  for (const Metric& m : metrics_) {
    std::printf("%-32s %18.6g  %-8s %zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  uint64_t attempted = 0, failed = 0;
  for (const auto& [name, p] : phases_) {
    std::printf("ops %-20s attempted %llu  succeeded %llu  failed %llu\n",
                name.c_str(), static_cast<unsigned long long>(p.attempted),
                static_cast<unsigned long long>(p.attempted - p.failed),
                static_cast<unsigned long long>(p.failed));
    attempted += p.attempted;
    failed += p.failed;
  }
  for (const std::string& line : check_lines_) {
    std::printf("check %s\n", line.c_str());
  }

  std::string json = "{\"workload\":" + JsonString(workload) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"trace\":" + (trace ? "true" : "false") +
                     ",\"correct\":" + (correct() ? "true" : "false") +
                     ",\"attempted\":" + std::to_string(attempted) +
                     ",\"failed\":" + std::to_string(failed);
  json += ",\"host\":{\"nproc\":" + std::to_string(host.nproc) +
          ",\"cpu_model\":" + JsonString(host.cpu_model) +
          ",\"compiler\":" + JsonString(host.compiler) +
          ",\"build_type\":" + JsonString(host.build_type) +
          ",\"kernel_backend\":" + JsonString(host.kernel_backend) +
          ",\"threads_comparable\":" +
          (host.threads_comparable ? "true" : "false") + "}";
  json += ",\"phases\":{";
  bool first = true;
  for (const auto& [name, p] : phases_) {
    json += std::string(first ? "" : ",") + JsonString(name) +
            ":{\"attempted\":" + std::to_string(p.attempted) +
            ",\"succeeded\":" + std::to_string(p.attempted - p.failed) +
            ",\"failed\":" + std::to_string(p.failed) + "}";
    first = false;
  }
  json += "},\"metrics\":{";
  first = true;
  for (const Metric& m : metrics_) {
    json += std::string(first ? "" : ",") + JsonString(m.name) +
            ":{\"value\":" + JsonNumber(m.value) +
            ",\"unit\":" + JsonString(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
    first = false;
  }
  json += "}}";
  std::printf("E2EBENCH_RESULT %s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace e2ebench
