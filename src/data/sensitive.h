// SensitiveView: the sensitive-attribute set S extracted into the compact
// representation the fair clustering algorithms consume.
//
// FairKM (Eq. 7/22/23) needs, per categorical sensitive attribute, the code of
// every object plus the dataset-level fractional representation of each value;
// per numeric sensitive attribute, the values plus the dataset mean. Both can
// carry a fairness weight w_S (Eq. 23).

#ifndef FAIRKM_DATA_SENSITIVE_H_
#define FAIRKM_DATA_SENSITIVE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace fairkm {
namespace data {

/// \brief One categorical sensitive attribute over all rows.
struct CategoricalSensitive {
  std::string name;
  int cardinality = 0;
  std::vector<int32_t> codes;              ///< Per-row value code.
  std::vector<double> dataset_fractions;   ///< Fr_X(s) for each value s.
  double weight = 1.0;                     ///< w_S of Eq. 23.
};

/// \brief One numeric sensitive attribute over all rows (Eq. 22 extension).
struct NumericSensitive {
  std::string name;
  std::vector<double> values;  ///< Per-row value.
  double dataset_mean = 0.0;   ///< Dataset-level average X.S.
  double weight = 1.0;
};

/// \brief All sensitive attributes for one dataset.
struct SensitiveView {
  std::vector<CategoricalSensitive> categorical;
  std::vector<NumericSensitive> numeric;

  size_t num_rows() const {
    if (!categorical.empty()) return categorical[0].codes.size();
    if (!numeric.empty()) return numeric[0].values.size();
    return 0;
  }
  bool empty() const { return categorical.empty() && numeric.empty(); }

  /// \brief Structural validation against an expected row count. num_rows()
  /// only reads the FIRST attribute, so a ragged view (e.g. a second
  /// categorical attribute with fewer rows) passes a num_rows() check and
  /// then indexes out of bounds downstream. This checks EVERY attribute:
  /// each categorical attribute must have `expected_rows` codes, a positive
  /// cardinality, one dataset fraction per value, and every code within
  /// [0, cardinality); each numeric attribute must have a finite dataset
  /// mean and `expected_rows` finite values. The per-row half is
  /// ValidateRequestView against the view's own structure. An empty view is
  /// always valid.
  Status Validate(size_t expected_rows) const;

  /// \brief View restricted to a single categorical attribute (used for the
  /// per-attribute ZGYA(S) / FairKM(S) invocations of the paper's §5.6).
  Result<SensitiveView> SelectCategorical(const std::string& name) const;
};

/// \brief Validates an out-of-sample request view — one entry per request
/// point, the input of every insertion path (solver Assign, online Admit,
/// serve AssignBatch) — against a trained attribute structure: the same
/// number of categorical and numeric attributes (same order), every
/// attribute covering `rows` rows (a ragged view is rejected before any
/// per-row indexing), every code within the TRAINED cardinality, and every
/// numeric value finite. Only the trained attributes' names and
/// cardinalities are read; their per-row vectors may be empty. Rejections
/// are kInvalidArgument.
Status ValidateRequestView(
    const std::vector<CategoricalSensitive>& trained_categorical,
    const std::vector<NumericSensitive>& trained_numeric,
    const SensitiveView& request, size_t rows);

/// \brief Builds a SensitiveView from named dataset columns. `weights`, when
/// non-empty, must parallel cat_names followed by num_names.
Result<SensitiveView> MakeSensitiveView(const Dataset& dataset,
                                        const std::vector<std::string>& cat_names,
                                        const std::vector<std::string>& num_names = {},
                                        const std::vector<double>& weights = {});

}  // namespace data
}  // namespace fairkm

#endif  // FAIRKM_DATA_SENSITIVE_H_
