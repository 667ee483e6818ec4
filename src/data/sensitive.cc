#include "data/sensitive.h"

#include <cmath>

#include "common/stats.h"

namespace fairkm {
namespace data {

Status SensitiveView::Validate(size_t expected_rows) const {
  for (const auto& attr : categorical) {
    if (attr.cardinality <= 0) {
      return Status::InvalidArgument("sensitive attribute '" + attr.name +
                                     "' has no categories");
    }
    if (attr.dataset_fractions.size() != static_cast<size_t>(attr.cardinality)) {
      return Status::InvalidArgument(
          "sensitive attribute '" + attr.name + "' has " +
          std::to_string(attr.dataset_fractions.size()) +
          " dataset fractions for cardinality " +
          std::to_string(attr.cardinality));
    }
  }
  for (const auto& attr : numeric) {
    if (!std::isfinite(attr.dataset_mean)) {
      return Status::InvalidArgument("sensitive attribute '" + attr.name +
                                     "' has a non-finite dataset mean");
    }
  }
  // The per-row checks are the request check against this view's own
  // structure.
  return ValidateRequestView(categorical, numeric, *this, expected_rows);
}

Status ValidateRequestView(
    const std::vector<CategoricalSensitive>& trained_categorical,
    const std::vector<NumericSensitive>& trained_numeric,
    const SensitiveView& request, size_t rows) {
  if (request.categorical.size() != trained_categorical.size() ||
      request.numeric.size() != trained_numeric.size()) {
    return Status::InvalidArgument(
        "sensitive view must mirror the trained attribute structure (same "
        "categorical/numeric attributes, same order)");
  }
  for (size_t a = 0; a < trained_categorical.size(); ++a) {
    const std::vector<int32_t>& codes = request.categorical[a].codes;
    const std::string& name = trained_categorical[a].name;
    const int m = trained_categorical[a].cardinality;
    if (codes.size() != rows) {
      return Status::InvalidArgument(
          "sensitive attribute \"" + name + "\" covers " +
          std::to_string(codes.size()) + " rows, expected " +
          std::to_string(rows));
    }
    for (size_t i = 0; i < rows; ++i) {
      if (codes[i] < 0 || codes[i] >= m) {
        return Status::InvalidArgument(
            "attribute \"" + name + "\" code " + std::to_string(codes[i]) +
            " at row " + std::to_string(i) +
            " outside cardinality " + std::to_string(m));
      }
    }
  }
  for (size_t a = 0; a < trained_numeric.size(); ++a) {
    const std::vector<double>& values = request.numeric[a].values;
    const std::string& name = trained_numeric[a].name;
    if (values.size() != rows) {
      return Status::InvalidArgument(
          "sensitive attribute \"" + name + "\" covers " +
          std::to_string(values.size()) + " rows, expected " +
          std::to_string(rows));
    }
    for (size_t i = 0; i < rows; ++i) {
      if (!std::isfinite(values[i])) {
        return Status::InvalidArgument("sensitive attribute \"" + name +
                                       "\" has a non-finite value at row " +
                                       std::to_string(i));
      }
    }
  }
  return Status::OK();
}

Result<SensitiveView> SensitiveView::SelectCategorical(const std::string& name) const {
  for (const auto& attr : categorical) {
    if (attr.name == name) {
      SensitiveView out;
      out.categorical.push_back(attr);
      return out;
    }
  }
  return Status::NotFound("sensitive attribute '" + name + "'");
}

Result<SensitiveView> MakeSensitiveView(const Dataset& dataset,
                                        const std::vector<std::string>& cat_names,
                                        const std::vector<std::string>& num_names,
                                        const std::vector<double>& weights) {
  if (!weights.empty() && weights.size() != cat_names.size() + num_names.size()) {
    return Status::InvalidArgument("weights must parallel cat_names + num_names");
  }
  SensitiveView view;
  size_t w = 0;
  for (const auto& name : cat_names) {
    FAIRKM_ASSIGN_OR_RETURN(const CategoricalColumn* col,
                            dataset.FindCategorical(name));
    CategoricalSensitive attr;
    attr.name = name;
    attr.cardinality = col->cardinality();
    if (attr.cardinality == 0) {
      return Status::InvalidArgument("sensitive attribute '" + name +
                                     "' has no categories");
    }
    attr.codes = col->codes;
    attr.dataset_fractions = col->Fractions();
    attr.weight = weights.empty() ? 1.0 : weights[w];
    ++w;
    view.categorical.push_back(std::move(attr));
  }
  for (const auto& name : num_names) {
    FAIRKM_ASSIGN_OR_RETURN(const NumericColumn* col, dataset.FindNumeric(name));
    NumericSensitive attr;
    attr.name = name;
    attr.values = col->values;
    attr.dataset_mean = Mean(col->values);
    attr.weight = weights.empty() ? 1.0 : weights[w];
    ++w;
    view.numeric.push_back(std::move(attr));
  }
  return view;
}

}  // namespace data
}  // namespace fairkm
