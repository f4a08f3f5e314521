#include "exec/query_stats.h"

#include <algorithm>

#include "common/str_util.h"

namespace conquer {

namespace {

bool MatchesPrefix(const PlanNodeStats& node, std::string_view prefix) {
  return node.description.size() >= prefix.size() &&
         std::string_view(node.description).substr(0, prefix.size()) == prefix;
}

void SumSelfSeconds(const PlanNodeStats& node, std::string_view prefix,
                    double* total) {
  if (MatchesPrefix(node, prefix)) *total += node.self_seconds;
  for (const PlanNodeStats& c : node.children) SumSelfSeconds(c, prefix, total);
}

const PlanNodeStats* FindFirst(const PlanNodeStats& node,
                               std::string_view prefix) {
  if (MatchesPrefix(node, prefix)) return &node;
  for (const PlanNodeStats& c : node.children) {
    if (const PlanNodeStats* hit = FindFirst(c, prefix)) return hit;
  }
  return nullptr;
}

std::string HumanBytes(uint64_t bytes) {
  if (bytes < 1024) return StringPrintf("%lluB", (unsigned long long)bytes);
  double kb = static_cast<double>(bytes) / 1024.0;
  if (kb < 1024.0) return StringPrintf("%.1fKB", kb);
  return StringPrintf("%.1fMB", kb / 1024.0);
}

void RenderNode(const PlanNodeStats& node, int depth, std::string* out) {
  const OperatorMetrics& m = node.metrics;
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(node.description);
  out->append(StringPrintf(
      "  (rows=%llu time=%.3fms self=%.3fms",
      (unsigned long long)m.rows_produced, m.total_seconds() * 1e3,
      node.self_seconds * 1e3));
  if (m.est_rows >= 0.0) {
    // Planner estimate next to the actual row count: cost-model
    // misestimates (histogram staleness, bad NDV) show up in one line.
    out->append(StringPrintf(" est_rows=%.0f", m.est_rows));
  }
  if (m.index_probes > 0) {
    out->append(StringPrintf(" index_probes=%llu index_rows=%llu",
                             (unsigned long long)m.index_probes,
                             (unsigned long long)m.index_rows));
  }
  if (m.batches > 0) {
    out->append(StringPrintf(" batches=%llu", (unsigned long long)m.batches));
  }
  if (m.dict_hits > 0) {
    out->append(
        StringPrintf(" dict_hit=%llu", (unsigned long long)m.dict_hits));
  }
  if (m.chunks_skipped > 0) {
    out->append(StringPrintf(" chunks_skipped=%llu",
                             (unsigned long long)m.chunks_skipped));
  }
  if (m.bloom_filtered > 0) {
    out->append(StringPrintf(" bloom_filtered=%llu",
                             (unsigned long long)m.bloom_filtered));
  }
  if (m.chunks_loaded > 0) {
    out->append(StringPrintf(" chunks_loaded=%llu columns_loaded=%llu "
                             "bytes_read=%llu",
                             (unsigned long long)m.chunks_loaded,
                             (unsigned long long)m.columns_loaded,
                             (unsigned long long)m.bytes_read));
  }
  if (m.chunks_evicted > 0) {
    out->append(StringPrintf(" chunks_evicted=%llu",
                             (unsigned long long)m.chunks_evicted));
  }
  if (m.io_read_seconds > 0.0) {
    out->append(StringPrintf(" io_read_ms=%.3f", m.io_read_seconds * 1e3));
  }
  if (m.open_seconds > 0.0 && (m.hash_entries > 0 || m.build_rows > 0 ||
                               m.peak_memory_bytes > 0)) {
    out->append(StringPrintf(" open=%.3fms", m.open_seconds * 1e3));
  }
  if (m.build_rows > 0 || m.probe_rows > 0) {
    out->append(StringPrintf(" build_rows=%llu probe_rows=%llu",
                             (unsigned long long)m.build_rows,
                             (unsigned long long)m.probe_rows));
  }
  if (m.hash_entries > 0) {
    out->append(StringPrintf(" entries=%llu",
                             (unsigned long long)m.hash_entries));
  }
  if (m.peak_memory_bytes > 0) {
    out->append(" mem=" + HumanBytes(m.peak_memory_bytes));
  }
  if (m.parallel_degree > 1) {
    out->append(StringPrintf(" workers=%u", m.parallel_degree));
    out->append(" worker_rows=[");
    for (size_t i = 0; i < m.worker_rows.size(); ++i) {
      if (i > 0) out->append(",");
      out->append(StringPrintf("%llu", (unsigned long long)m.worker_rows[i]));
    }
    out->append("]");
  }
  out->append(")\n");
  for (const PlanNodeStats& c : node.children) {
    RenderNode(c, depth + 1, out);
  }
}

uint64_t SumPeakMemory(const PlanNodeStats& node) {
  uint64_t total = node.metrics.peak_memory_bytes;
  for (const PlanNodeStats& c : node.children) total += SumPeakMemory(c);
  return total;
}

}  // namespace

double QueryStats::OperatorSelfSeconds(std::string_view op_prefix) const {
  double total = 0.0;
  SumSelfSeconds(plan, op_prefix, &total);
  return total;
}

double QueryStats::OperatorShare(std::string_view op_prefix) const {
  if (exec_seconds <= 0.0) return 0.0;
  return std::min(1.0, OperatorSelfSeconds(op_prefix) / exec_seconds);
}

uint64_t QueryStats::OperatorRows(std::string_view op_prefix) const {
  const PlanNodeStats* hit = FindFirst(plan, op_prefix);
  return hit != nullptr ? hit->metrics.rows_produced : 0;
}

std::string QueryStats::ToString() const {
  std::string out = StringPrintf(
      "phases: parse=%.3fms bind=%.3fms plan=%.3fms exec=%.3fms "
      "(total %.3fms)\nrows: %llu  est. peak operator memory: %s\n",
      parse_seconds * 1e3, bind_seconds * 1e3, plan_seconds * 1e3,
      exec_seconds * 1e3, total_seconds() * 1e3,
      (unsigned long long)rows_returned, HumanBytes(peak_memory_bytes).c_str());
  out += RenderAnalyzedPlan(plan);
  return out;
}

PlanNodeStats CollectPlanStats(const Operator& root) {
  PlanNodeStats node;
  node.description = root.Describe();
  node.metrics = root.metrics();
  double children_total = 0.0;
  for (const Operator* child : root.Children()) {
    node.children.push_back(CollectPlanStats(*child));
    children_total += node.children.back().metrics.total_seconds();
  }
  node.self_seconds =
      std::max(0.0, node.metrics.total_seconds() - children_total);
  return node;
}

std::string RenderAnalyzedPlan(const PlanNodeStats& root) {
  std::string out;
  RenderNode(root, 0, &out);
  return out;
}

uint64_t EstimatePlanPeakMemory(const PlanNodeStats& root) {
  return SumPeakMemory(root);
}

}  // namespace conquer
