#ifndef CONQUER_FUZZ_GENERATOR_H_
#define CONQUER_FUZZ_GENERATOR_H_

#include <cstdint>

#include "fuzz/fuzz_case.h"

namespace conquer {
namespace fuzz {

/// \brief Knobs of the random dirty-database / query generator.
///
/// Everything is driven by one 64-bit seed: the same (seed, config) pair
/// always yields byte-identical cases, so a failing iteration can be
/// reproduced from its seed alone.
struct FuzzConfig {
  // ---- Database shape. ----
  int min_tables = 2;
  int max_tables = 4;
  /// Entities (clusters) per table.
  int min_entities = 1;
  int max_entities = 4;
  /// Non-key attribute columns per table (at least 1).
  int max_attrs = 2;
  /// Probability that an attribute column is a STRING (else INT64).
  double string_attr_rate = 0.45;

  // ---- Cluster shape. ----
  /// Geometric continuation probability for cluster sizes: a cluster grows
  /// past size k with probability cluster_skew^k. Higher = more duplicates.
  double cluster_skew = 0.55;
  int max_cluster_size = 4;
  /// Probability that a cluster gets an exactly-dyadic distribution (1.0,
  /// 0.5+0.5, 0.25*4) whose probabilities sum to exactly 1.0 in binary
  /// floating point — the "answer sits exactly on probability 1" edge case.
  double exact_dyadic_rate = 0.3;
  /// Cap on the candidate-database count (product of cluster sizes); extra
  /// clusters collapse to singletons so the naive oracle stays feasible.
  uint64_t max_candidate_product = 1024;

  // ---- Value model. ----
  /// Probability that an attribute value is NULL.
  double null_density = 0.12;
  /// Size of the string-attribute domain (dictionary cardinality).
  int dict_cardinality = 6;
  int int_domain = 6;  ///< INT64 attributes draw from [0, int_domain).
  /// Probability that a duplicate's attribute is a typo-perturbed copy of
  /// the cluster base value (gen/perturb machinery) instead of a fresh draw.
  double perturb_rate = 0.5;
  /// Probability that a duplicate's foreign key points at a different
  /// entity than the cluster base row (referential disagreement).
  double fk_error_rate = 0.1;

  // ---- Query shape. ----
  /// Probability that any given attribute gets a selection predicate.
  double pred_rate = 0.45;
  /// Among string predicates, probability of LIKE instead of =/<>.
  double like_rate = 0.3;
  /// Probability of an id-equality point predicate on some table.
  double id_pred_rate = 0.15;
  /// Probability that an attribute is projected.
  double select_attr_rate = 0.6;
  /// Probability that a non-root identifier is projected.
  double select_id_rate = 0.4;
  /// Probability that the query is a deliberately non-rewritable mutant
  /// exercising the Dfn 7 checker's reject path.
  double mutant_rate = 0.15;

  // ---- Mutation stage (on by default). ----
  /// Probability that a rewritable case carries mutation-stage writes.
  double write_rate = 0.6;
  /// Maximum SQL writes interleaved per case (uniform in [1, max_writes]).
  int max_writes = 4;

  // ---- Secondary indexes (on by default). ----
  /// Probability that a table gets a CREATE INDEX op (on its identifier or
  /// a random attribute). Indexed cases flow through IndexScan point
  /// lookups and index-seeded join probes; the oracle sweeps re-run them
  /// with index access disabled and demand bit-identical answers.
  double index_rate = 0.5;
  /// Probability that an indexed attribute also receives a selective point
  /// or narrow-range predicate template (satisfiable: literals are sampled
  /// from stored rows), steering plans toward the index path.
  double selective_pred_rate = 0.5;
  /// Probability that an indexed attribute gets an in-place SetValue op
  /// after the index is built, invalidating exactly one chunk's index slice
  /// so the query path exercises lazy per-chunk rebuild.
  double index_setvalue_rate = 0.4;
};

/// The non-rewritable mutations the generator can apply.
/// Labels stored in FuzzQuery::mutation:
///   "attr_attr_join"  joins two non-identifier attributes (condition 1)
///   "id_id_unify"     id=id edge collapsing the tree into a cycle (cond. 2)
///   "dup_join_arc"    duplicated fk=id conjunct: two parents (condition 2)
///   "self_join"       relation listed twice in FROM (condition 3)
///   "no_root_id"      root identifier dropped from SELECT (condition 4)
FuzzCase GenerateCase(uint64_t seed, const FuzzConfig& config);

}  // namespace fuzz
}  // namespace conquer

#endif  // CONQUER_FUZZ_GENERATOR_H_
