#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/string_util.h"

namespace fairkm {
namespace data {

std::vector<double> CategoricalColumn::Fractions() const {
  std::vector<double> fractions(labels.size(), 0.0);
  if (codes.empty()) return fractions;
  for (int32_t c : codes) {
    FAIRKM_DCHECK(c >= 0 && c < cardinality());
    fractions[static_cast<size_t>(c)] += 1.0;
  }
  const double inv = 1.0 / static_cast<double>(codes.size());
  for (double& f : fractions) f *= inv;
  return fractions;
}

Status Dataset::CheckLength(size_t len, const std::string& name) {
  if (!has_columns_) {
    num_rows_ = len;
    has_columns_ = true;
    return Status::OK();
  }
  if (len != num_rows_) {
    return Status::InvalidArgument("column '" + name + "' has " + std::to_string(len) +
                                   " rows, dataset has " + std::to_string(num_rows_));
  }
  return Status::OK();
}

Status Dataset::AddNumeric(std::string name, std::vector<double> values) {
  for (const auto& c : numeric_) {
    if (c.name == name) return Status::AlreadyExists("numeric column '" + name + "'");
  }
  // Reject NaN/Inf at ingestion: a non-finite coordinate would otherwise
  // propagate through every centroid and distance downstream. Checked
  // before CheckLength, which commits the dataset's row count.
  for (size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument("column '" + name +
                                     "' has a non-finite value at row " +
                                     std::to_string(i));
    }
  }
  FAIRKM_RETURN_NOT_OK(CheckLength(values.size(), name));
  numeric_.push_back(NumericColumn{std::move(name), std::move(values)});
  return Status::OK();
}

Status Dataset::AddCategorical(std::string name, std::vector<int32_t> codes,
                               std::vector<std::string> labels) {
  for (const auto& c : categorical_) {
    if (c.name == name) {
      return Status::AlreadyExists("categorical column '" + name + "'");
    }
  }
  FAIRKM_RETURN_NOT_OK(CheckLength(codes.size(), name));
  const int32_t card = static_cast<int32_t>(labels.size());
  for (int32_t code : codes) {
    if (code < 0 || code >= card) {
      return Status::OutOfRange("code " + std::to_string(code) + " out of range for '" +
                                name + "' (cardinality " + std::to_string(card) + ")");
    }
  }
  categorical_.push_back(
      CategoricalColumn{std::move(name), std::move(codes), std::move(labels)});
  return Status::OK();
}

Result<const NumericColumn*> Dataset::FindNumeric(const std::string& name) const {
  for (const auto& c : numeric_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("numeric column '" + name + "'");
}

Result<const CategoricalColumn*> Dataset::FindCategorical(
    const std::string& name) const {
  for (const auto& c : categorical_) {
    if (c.name == name) return &c;
  }
  return Status::NotFound("categorical column '" + name + "'");
}

Result<Matrix> Dataset::ToMatrix(const std::vector<std::string>& column_names) const {
  Matrix out(num_rows_, column_names.size());
  for (size_t j = 0; j < column_names.size(); ++j) {
    FAIRKM_ASSIGN_OR_RETURN(const NumericColumn* col, FindNumeric(column_names[j]));
    for (size_t i = 0; i < num_rows_; ++i) out.At(i, j) = col->values[i];
  }
  return out;
}

std::vector<std::string> Dataset::NumericNames() const {
  std::vector<std::string> names;
  names.reserve(numeric_.size());
  for (const auto& c : numeric_) names.push_back(c.name);
  return names;
}

Dataset Dataset::SelectRows(const std::vector<size_t>& indices) const {
  Dataset out;
  for (const auto& col : numeric_) {
    std::vector<double> values;
    values.reserve(indices.size());
    for (size_t idx : indices) {
      FAIRKM_DCHECK(idx < num_rows_);
      values.push_back(col.values[idx]);
    }
    out.AddNumeric(col.name, std::move(values)).Abort();
  }
  for (const auto& col : categorical_) {
    std::vector<int32_t> codes;
    codes.reserve(indices.size());
    for (size_t idx : indices) codes.push_back(col.codes[idx]);
    out.AddCategorical(col.name, std::move(codes), col.labels).Abort();
  }
  // A dataset with zero columns still carries a row count of zero, which is
  // the correct degenerate behaviour here.
  return out;
}

CsvTable Dataset::ToCsv() const {
  CsvTable table;
  for (const auto& c : numeric_) table.header.push_back(c.name);
  for (const auto& c : categorical_) table.header.push_back(c.name);
  table.rows.reserve(num_rows_);
  for (size_t i = 0; i < num_rows_; ++i) {
    std::vector<std::string> row;
    row.reserve(table.header.size());
    for (const auto& c : numeric_) row.push_back(FormatDouble(c.values[i], 6));
    for (const auto& c : categorical_) {
      row.push_back(c.labels[static_cast<size_t>(c.codes[i])]);
    }
    table.rows.push_back(std::move(row));
  }
  return table;
}

Result<Dataset> Dataset::FromCsv(const CsvTable& table) {
  const size_t n = table.num_rows();
  const size_t cols = table.num_cols();
  // One row-major pass: a column stays numeric while every cell parses as a
  // double, and drops its values at the first cell that does not.
  std::vector<char> numeric(cols, n > 0 ? 1 : 0);
  std::vector<std::vector<double>> values(cols);
  for (size_t j = 0; j < cols; ++j) {
    if (numeric[j]) values[j].reserve(n);
  }
  for (size_t i = 0; i < n; ++i) {
    const std::vector<std::string>& row = table.rows[i];
    for (size_t j = 0; j < cols; ++j) {
      if (!numeric[j]) continue;
      double v = 0;
      if (ParseDouble(row[j], &v)) {
        values[j].push_back(v);
      } else {
        numeric[j] = 0;
        values[j] = std::vector<double>();
      }
    }
  }

  Dataset out;
  for (size_t j = 0; j < cols; ++j) {
    if (numeric[j]) {
      FAIRKM_RETURN_NOT_OK(out.AddNumeric(table.header[j], std::move(values[j])));
      continue;
    }
    // Categorical: first-seen codes from one hash pass, then remapped to the
    // rank of each label in the sorted dictionary (deterministic codes).
    std::unordered_map<std::string_view, int32_t> first_seen;
    std::vector<std::string_view> seen;
    std::vector<int32_t> codes(n);
    for (size_t i = 0; i < n; ++i) {
      const std::string_view label = table.rows[i][j];
      const auto [it, inserted] =
          first_seen.try_emplace(label, static_cast<int32_t>(seen.size()));
      if (inserted) seen.push_back(label);
      codes[i] = it->second;
    }
    std::vector<int32_t> order(seen.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](int32_t a, int32_t b) { return seen[a] < seen[b]; });
    std::vector<int32_t> rank(seen.size());
    std::vector<std::string> labels;
    labels.reserve(seen.size());
    for (size_t r = 0; r < order.size(); ++r) {
      rank[static_cast<size_t>(order[r])] = static_cast<int32_t>(r);
      labels.emplace_back(seen[static_cast<size_t>(order[r])]);
    }
    for (int32_t& code : codes) code = rank[static_cast<size_t>(code)];
    FAIRKM_RETURN_NOT_OK(
        out.AddCategorical(table.header[j], std::move(codes), std::move(labels)));
  }
  return out;
}

}  // namespace data
}  // namespace fairkm
