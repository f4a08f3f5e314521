#ifndef CONQUER_PROB_PROVIDERS_H_
#define CONQUER_PROB_PROVIDERS_H_

#include <string>
#include <unordered_map>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "storage/table.h"

namespace conquer {

/// \brief Alternative probability providers from the paper's Section 1.
///
/// The clean-answer semantics is independent of how tuple probabilities are
/// produced. Besides the information-loss method of Section 4
/// (prob/assigner.h), the paper names two other sources, implemented here:
/// uniform probabilities "in the absence of provenance information", and
/// source-reliability probabilities ("the more reliable the source, the
/// higher its probability", distributed to tuples via provenance). Both
/// read the rows visible at the table's committed version.
/// \{

/// Assigns 1/|cluster| to every tuple of every cluster.
Status AssignUniformProbabilities(Table* table, const DirtyTableInfo& info);

/// Assigns probabilities proportional to the reliability of each tuple's
/// source, normalized per cluster:
///   prob(t) = reliability(source(t)) / sum over cluster of reliability.
///
/// `source_column` names the provenance attribute; `reliability` maps its
/// values to non-negative weights. Tuples whose source is missing from the
/// map use `default_reliability`. A cluster whose total weight is zero
/// falls back to uniform.
Status AssignSourceReliabilityProbabilities(
    Table* table, const DirtyTableInfo& info, std::string_view source_column,
    const std::unordered_map<std::string, double>& reliability,
    double default_reliability = 0.0);

/// \}

}  // namespace conquer

#endif  // CONQUER_PROB_PROVIDERS_H_
