// Deduplication pipeline on bibliographic data (paper Section 4): cluster
// summaries (DCFs), information-loss distances, probability assignment,
// and clean answers over the annotated result.
//
// Run:  ./build/examples/dedup_pipeline

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/clean_engine.h"
#include "gen/cora.h"
#include "prob/assigner.h"
#include "prob/matcher.h"

using namespace conquer;

int main() {
  // 1. A Cora-like citations table: duplicate citations as integrated from
  //    several sources (no probabilities yet).
  CoraConfig config;
  config.num_clusters = 6;
  config.min_cluster_size = 2;
  config.max_cluster_size = 9;
  DirtyTableInfo info;
  auto table = MakeCoraLikeTable(config, &info);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  std::printf("Generated %zu citation tuples in %zu clusters.\n",
              (*table)->num_rows(), config.num_clusters);

  // 1b. Pretend the clustering is unknown: run the baseline LIMBO-family
  //     matcher and compare its cluster count against the ground truth.
  {
    MatcherOptions match;
    match.exclude_columns = {"id", "prob"};
    auto found = MatchTuples(**table, match);
    if (found.ok()) {
      std::printf("Baseline matcher re-discovers %zu clusters "
                  "(ground truth: %zu).\n\n",
                  found->num_clusters, config.num_clusters);
    }
  }

  // 2. Assign probabilities with the paper's Fig. 5 algorithm.
  auto details = AssignProbabilities(table->get(), info);
  if (!details.ok()) {
    std::fprintf(stderr, "%s\n", details.status().ToString().c_str());
    return 1;
  }

  // Show one cluster's internal ranking.
  std::printf("Cluster 'pub0' ranked by assigned probability:\n");
  std::vector<TupleProbability> ranked;
  for (const TupleProbability& t : *details) {
    if ((*table)->row(t.row)[0].string_value() == "pub0") ranked.push_back(t);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const TupleProbability& a, const TupleProbability& b) {
                     return a.probability > b.probability;
                   });
  for (const TupleProbability& t : ranked) {
    const Row& r = (*table)->row(t.row);
    std::printf("  p=%.3f d=%.4f  %s | %s | %s\n", t.probability, t.distance,
                r[1].string_value().c_str(), r[2].string_value().c_str(),
                r[3].string_value().c_str());
  }

  // 3. Load into a database and answer clean queries over it.
  Database db;
  std::vector<Row> rows;
  rows.reserve((*table)->num_rows());
  for (size_t i = 0; i < (*table)->num_rows(); ++i) {
    rows.push_back((*table)->row(i));
  }
  DirtySchema dirty;
  Status s = db.CreateTable((*table)->schema());
  if (s.ok()) s = db.InsertMany(info.table_name, std::move(rows));
  if (s.ok()) s = dirty.AddTable(info);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }

  CleanAnswerEngine engine(&db, &dirty);
  // Query on the venue of the first cluster's canonical citation.
  auto citations = db.GetTable("citations");
  if (!citations.ok()) return 1;
  std::string venue = (*citations)->row(0)[3].string_value();
  std::string query =
      "select id, venue from citations c where venue = '" + venue + "'";
  std::printf("\nWhich publications appeared in '%s'?\n  %s\n\n",
              venue.c_str(), query.c_str());
  auto answers = engine.Query(query.c_str());
  if (!answers.ok()) {
    std::fprintf(stderr, "%s\n", answers.status().ToString().c_str());
    return 1;
  }
  answers->SortByProbabilityDesc();
  std::printf("%s", answers->ToString(20).c_str());
  std::printf("\nEach probability sums the clusters' duplicate evidence for "
              "the venue value;\nformat variants and misclustered tuples "
              "lower it without erasing the answer.\n");
  return 0;
}
