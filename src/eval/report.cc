#include "eval/report.h"

#include <cmath>
#include <fstream>

#include "dp/confidence.h"
#include "eval/metrics.h"

namespace ireduct {

Status WriteMarginalCsv(const Marginal& marginal, const Schema& schema,
                        std::ostream& out) {
  for (size_t i = 0; i < marginal.spec().attributes.size(); ++i) {
    const uint32_t attr = marginal.spec().attributes[i];
    if (attr >= schema.num_attributes()) {
      return Status::OutOfRange("marginal attribute outside schema");
    }
    out << schema.attribute(attr).name << ',';
  }
  out << "count\n";
  for (size_t cell = 0; cell < marginal.num_cells(); ++cell) {
    for (uint16_t coord : marginal.CellCoordinates(cell)) {
      out << coord << ',';
    }
    out << marginal.count(cell) << '\n';
  }
  if (!out) return Status::IoError("marginal CSV write failed");
  return Status::OK();
}

Status WriteMarginalsCsv(const std::vector<Marginal>& marginals,
                         const Schema& schema, const std::string& directory,
                         const std::string& prefix) {
  for (size_t i = 0; i < marginals.size(); ++i) {
    const std::string path =
        directory + "/" + prefix + "_" + std::to_string(i) + ".csv";
    std::ofstream out(path);
    if (!out) return Status::IoError("cannot open '" + path + "'");
    IREDUCT_RETURN_NOT_OK(WriteMarginalCsv(marginals[i], schema, out));
  }
  return Status::OK();
}

Status WriteAnswersCsv(const Workload& workload,
                       const MechanismOutput& output, double level,
                       std::ostream& out) {
  IREDUCT_ASSIGN_OR_RETURN(std::vector<ConfidenceInterval> intervals,
                           ConfidenceIntervals(workload, output, level));
  out << "query_index,group,answer,noise_scale,ci_lo,ci_hi\n";
  for (size_t g = 0; g < workload.num_groups(); ++g) {
    const QueryGroup& group = workload.group(g);
    for (uint32_t i = group.begin; i < group.end; ++i) {
      out << i << ',' << group.name << ',' << output.answers[i] << ','
          << output.group_scales[g] << ',' << intervals[i].lo << ','
          << intervals[i].hi << '\n';
    }
  }
  if (!out) return Status::IoError("answers CSV write failed");
  return Status::OK();
}

ComparisonRow Evaluate(const std::string& name, const Workload& workload,
                       const MechanismOutput& output, double delta) {
  ComparisonRow row;
  row.mechanism = name;
  row.overall_error = OverallError(workload, output.answers, delta);
  row.max_relative_error =
      MaxRelativeError(workload, output.answers, delta);
  row.mean_absolute_error = MeanAbsoluteError(workload, output.answers);
  row.epsilon_spent = output.epsilon_spent;
  return row;
}

Status WriteComparisonCsv(const std::vector<ComparisonRow>& rows,
                          std::ostream& out) {
  out << "mechanism,overall_error,max_relative_error,mean_absolute_error,"
         "epsilon_spent\n";
  for (const ComparisonRow& row : rows) {
    out << row.mechanism << ',' << row.overall_error << ','
        << row.max_relative_error << ',' << row.mean_absolute_error << ','
        << row.epsilon_spent << '\n';
  }
  if (!out) return Status::IoError("comparison CSV write failed");
  return Status::OK();
}

}  // namespace ireduct
