// Seeded input generators. Every input the library sees is made here from
// the workload seed: the same seed gives byte-identical inputs.
#ifndef E2EBENCH_INPUTS_H_
#define E2EBENCH_INPUTS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/matrix.h"
#include "data/sensitive.h"

namespace e2ebench {

/// \brief Shape of the generated CSV: `numeric_cols` task columns f00..,
/// then three categorical sensitive columns with the given cardinalities.
struct CsvShape {
  size_t rows = 100000;
  size_t numeric_cols = 32;
  std::vector<int> sensitive_cardinalities = {2, 5, 12};
};

/// \brief Names of the categorical sensitive columns of a CsvShape.
std::vector<std::string> CsvSensitiveNames(const CsvShape& shape);

/// \brief CSV text with a header row. Rows come from a fixed mixture of
/// latent profiles, drawn with `seed`; the sensitive values and the task
/// columns both depend on the profile, so S-blind clusters are
/// demographically skewed.
std::string GenerateCsvText(const CsvShape& shape, uint64_t seed);

/// \brief Adult-shaped inputs: min-max-scaled task matrix and the full
/// sensitive view (5 attributes, 7/6/5/2/41 values).
struct AdultInputs {
  fairkm::data::Matrix features;
  fairkm::data::SensitiveView sensitive;
};

/// \brief GenerateAdultParity with num_rows and target_positive scaled by
/// `scale`, then the library's prep (ToMatrix over the task attributes,
/// MinMaxNormalize, MakeSensitiveView over all sensitive attributes).
fairkm::Result<AdultInputs> GenerateAdultInputs(uint64_t seed, size_t scale);

/// \brief Copy of rows [begin, begin + count).
fairkm::data::Matrix SliceRows(const fairkm::data::Matrix& m, size_t begin,
                               size_t count);

/// \brief Copy of the codes/values of rows [begin, begin + count) with the
/// attribute structure of `view`. Dataset-level fractions and means are
/// carried over from `view` (the training distribution).
fairkm::data::SensitiveView SliceView(const fairkm::data::SensitiveView& view,
                                      size_t begin, size_t count);

/// \brief 64-bit FNV-1a over the matrix and view contents, for comparing
/// generated inputs.
uint64_t Fingerprint(const fairkm::data::Matrix& m,
                     const fairkm::data::SensitiveView& view);

}  // namespace e2ebench

#endif  // E2EBENCH_INPUTS_H_
