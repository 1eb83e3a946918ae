#ifndef OPAQ_PARALLEL_PARALLEL_EXACT_H_
#define OPAQ_PARALLEL_PARALLEL_EXACT_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/exact.h"
#include "io/run_reader.h"
#include "parallel/collectives.h"
#include "util/status.h"

namespace opaq {

/// Distributed version of the paper's §4 exact-quantile extension: after a
/// parallel OPAQ run produced certified brackets, one extra parallel pass
/// recovers the exact values.
///
/// Each processor scans its local shard once, counting elements below each
/// bracket and keeping the (at most ~2n/s per quantile, globally) elements
/// inside it. Below-counts are all-reduced; the kept elements are gathered
/// at rank 0, which selects the element of rank `psi - below_total` within
/// each bracket. Communication is O(q * n/s) — tiny next to the data.
///
/// The local scan streams through `RunProvider::OpenRuns(options)`, so each
/// processor's shard may live on any storage backend, and with
/// `options.io_mode == kAsync` the bracket filtering overlaps with the next
/// run's read(s).
///
/// Returns the exact values at rank 0 (empty vector on other ranks). Must be
/// called from within a Cluster::Run body with the same SPMD discipline as
/// the other collectives; `estimates` must be identical on every rank.
template <typename K>
Result<std::vector<K>> ParallelExactQuantiles(
    ProcessorContext& ctx, const RunProvider<K>& local_data,
    const std::vector<QuantileEstimate<K>>& estimates,
    const ReadOptions& options, uint64_t local_memory_budget = 0) {
  // `estimates` are identical on every rank, so every rank takes the same
  // early exits here and no collective below is left waiting.
  OPAQ_RETURN_IF_ERROR(internal_exact::ValidateBrackets(estimates));
  if (estimates.empty()) return std::vector<K>{};
  if (local_memory_budget == 0) {
    local_memory_budget = internal_exact::DefaultExactBudget(estimates);
  }

  // Local pass: below-counts and kept elements per bracket.
  internal_exact::BracketAccumulator<K> local(estimates.size());
  const Status local_status = internal_exact::AccumulateBrackets(
      local_data, estimates, options, local_memory_budget, &local);

  // Health check before any blocking exchange (same pattern as
  // RunParallelOpaq): all ranks abort together if any local pass failed.
  std::vector<uint64_t> health = {
      static_cast<uint64_t>(local_status.code())};
  auto peer_health = collectives::AllGatherVectors(ctx, health);
  for (int r = 0; r < ctx.size(); ++r) {
    if (peer_health[r][0] != 0) {
      if (!local_status.ok()) return local_status;
      return Status(static_cast<StatusCode>(peer_health[r][0]),
                    "processor " + std::to_string(r) +
                        " failed during the exact pass");
    }
  }

  // Combine at the root: every shard's below-counts and kept elements fold
  // into one accumulator, then the same selection the single-source pass
  // runs.
  const std::vector<std::vector<uint64_t>> below =
      collectives::GatherVectors(ctx, 0, local.below);
  std::vector<std::vector<std::vector<K>>> kept(
      ctx.size(), std::vector<std::vector<K>>(estimates.size()));
  for (size_t q = 0; q < estimates.size(); ++q) {
    std::vector<std::vector<K>> shards =
        collectives::GatherVectors(ctx, 0, local.kept[q]);
    for (size_t r = 0; r < shards.size(); ++r) {
      kept[r][q] = std::move(shards[r]);
    }
  }
  if (ctx.rank() != 0) return std::vector<K>{};
  internal_exact::BracketAccumulator<K> merged(estimates.size());
  for (int r = 0; r < ctx.size(); ++r) {
    merged.Merge(below[r], std::move(kept[r]));
  }
  return internal_exact::SelectWithinBrackets(estimates, &merged);
}

}  // namespace opaq

#endif  // OPAQ_PARALLEL_PARALLEL_EXACT_H_
