#include "inputs.h"

#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "data/adult_generator.h"
#include "data/dataset.h"
#include "data/preprocess.h"

namespace e2ebench {

using fairkm::Rng;
namespace data = fairkm::data;

namespace {

constexpr int kProfiles = 8;
constexpr uint64_t kStructureSeed = 0xFA1C5EEDULL;

// Probability of each profile: a skewed but full-support distribution.
double ProfileWeight(int p) { return 1.0 / (1.0 + p); }

uint64_t Fnv(uint64_t h, const void* bytes, size_t len) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::vector<std::string> CsvSensitiveNames(const CsvShape& shape) {
  std::vector<std::string> names;
  for (size_t a = 0; a < shape.sensitive_cardinalities.size(); ++a) {
    names.push_back("s" + std::to_string(a));
  }
  return names;
}

std::string GenerateCsvText(const CsvShape& shape, uint64_t seed) {
  const size_t d = shape.numeric_cols;
  const size_t attrs = shape.sensitive_cardinalities.size();

  // The population's structure is fixed, like the Adult generator's: profile
  // centers and, per profile and attribute, a preferred value. The seed
  // draws the rows, so runs with different seeds see samples of one
  // population and their quality figures stay comparable.
  Rng structure(kStructureSeed);
  std::vector<double> centers(kProfiles * d);
  for (double& c : centers) c = structure.UniformDouble(0.0, 100.0);
  std::vector<int> preferred(kProfiles * attrs);
  for (int p = 0; p < kProfiles; ++p) {
    for (size_t a = 0; a < attrs; ++a) {
      preferred[p * attrs + a] = static_cast<int>(structure.UniformInt(
          static_cast<uint64_t>(shape.sensitive_cardinalities[a])));
    }
  }
  Rng rng(seed);
  double weight_sum = 0.0;
  for (int p = 0; p < kProfiles; ++p) weight_sum += ProfileWeight(p);

  std::string out;
  out.reserve(shape.rows * (d * 9 + attrs * 5));
  for (size_t j = 0; j < d; ++j) {
    char name[32];
    std::snprintf(name, sizeof(name), "f%02zu,", j);
    out += name;
  }
  const std::vector<std::string> sens = CsvSensitiveNames(shape);
  for (size_t a = 0; a < attrs; ++a) {
    out += sens[a];
    out += a + 1 < attrs ? ',' : '\n';
  }

  char buf[32];
  for (size_t r = 0; r < shape.rows; ++r) {
    double pick = rng.UniformDouble(0.0, weight_sum);
    int p = 0;
    while (p + 1 < kProfiles && pick >= ProfileWeight(p)) {
      pick -= ProfileWeight(p);
      ++p;
    }
    for (size_t j = 0; j < d; ++j) {
      const double v = centers[p * d + j] + rng.Normal(0.0, 12.0);
      const int len = std::snprintf(buf, sizeof(buf), "%.3f,", v);
      out.append(buf, static_cast<size_t>(len));
    }
    for (size_t a = 0; a < attrs; ++a) {
      const int m = shape.sensitive_cardinalities[a];
      // 60%: the profile's preferred value; otherwise uniform.
      const int value = rng.Bernoulli(0.6)
                            ? preferred[p * attrs + a]
                            : static_cast<int>(rng.UniformInt(
                                  static_cast<uint64_t>(m)));
      const int len =
          std::snprintf(buf, sizeof(buf), "v%d%c", value, a + 1 < attrs ? ',' : '\n');
      out.append(buf, static_cast<size_t>(len));
    }
  }
  return out;
}

fairkm::Result<AdultInputs> GenerateAdultInputs(uint64_t seed, size_t scale) {
  data::AdultOptions options;
  options.seed = seed;
  options.num_rows *= scale;
  options.target_positive *= scale;
  FAIRKM_ASSIGN_OR_RETURN(data::Dataset dataset,
                          data::GenerateAdultParity(options));
  AdultInputs out;
  FAIRKM_ASSIGN_OR_RETURN(out.features,
                          dataset.ToMatrix(data::AdultTaskNames()));
  data::MinMaxNormalize(&out.features);
  FAIRKM_ASSIGN_OR_RETURN(
      out.sensitive,
      data::MakeSensitiveView(dataset, data::AdultSensitiveNames()));
  return out;
}

data::Matrix SliceRows(const data::Matrix& m, size_t begin, size_t count) {
  data::Matrix out(count, m.cols());
  if (count > 0) {
    std::memcpy(out.Row(0), m.Row(begin), count * m.cols() * sizeof(double));
  }
  return out;
}

data::SensitiveView SliceView(const data::SensitiveView& view, size_t begin,
                              size_t count) {
  data::SensitiveView out;
  const auto b = static_cast<std::ptrdiff_t>(begin);
  const auto e = static_cast<std::ptrdiff_t>(begin + count);
  for (const auto& attr : view.categorical) {
    data::CategoricalSensitive a = attr;
    a.codes.assign(attr.codes.begin() + b, attr.codes.begin() + e);
    out.categorical.push_back(std::move(a));
  }
  for (const auto& attr : view.numeric) {
    data::NumericSensitive a = attr;
    a.values.assign(attr.values.begin() + b, attr.values.begin() + e);
    out.numeric.push_back(std::move(a));
  }
  return out;
}

uint64_t Fingerprint(const data::Matrix& m, const data::SensitiveView& view) {
  uint64_t h = 14695981039346656037ULL;
  const size_t shape[2] = {m.rows(), m.cols()};
  h = Fnv(h, shape, sizeof(shape));
  h = Fnv(h, m.data().data(), m.data().size() * sizeof(double));
  for (const auto& attr : view.categorical) {
    h = Fnv(h, attr.codes.data(), attr.codes.size() * sizeof(int32_t));
    h = Fnv(h, attr.dataset_fractions.data(),
            attr.dataset_fractions.size() * sizeof(double));
  }
  for (const auto& attr : view.numeric) {
    h = Fnv(h, attr.values.data(), attr.values.size() * sizeof(double));
  }
  return h;
}

}  // namespace e2ebench
