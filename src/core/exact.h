#ifndef OPAQ_CORE_EXACT_H_
#define OPAQ_CORE_EXACT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "io/run_reader.h"
#include "select/select.h"
#include "util/random.h"
#include "util/status.h"

namespace opaq {

namespace internal_exact {

/// Running state of a (possibly multi-source) exact second pass: one
/// below-count and one kept set per bracket, plus the total held across all
/// brackets for budget accounting.
template <typename K>
struct BracketAccumulator {
  std::vector<uint64_t> below;
  std::vector<std::vector<K>> kept;
  uint64_t held = 0;

  explicit BracketAccumulator(size_t num_estimates)
      : below(num_estimates, 0), kept(num_estimates) {}

  /// Folds a partial pass over other data (same brackets) into this one —
  /// the one merge behind a remote node's scan, the multi-shard pass and
  /// the parallel root: below-counts add and kept sets append (moved in
  /// whole where this side holds none yet). `held` counts the appended
  /// elements; returns how many there were. Selection is order-insensitive,
  /// so the merged answer equals one sequential scan's.
  uint64_t Merge(const std::vector<uint64_t>& more_below,
                 std::vector<std::vector<K>> more_kept) {
    uint64_t added = 0;
    for (size_t q = 0; q < below.size(); ++q) {
      below[q] += more_below[q];
      added += more_kept[q].size();
      if (kept[q].empty()) {
        kept[q] = std::move(more_kept[q]);
      } else {
        kept[q].insert(kept[q].end(), more_kept[q].begin(),
                       more_kept[q].end());
      }
    }
    held += added;
    return added;
  }

  /// Charges `added` newly kept elements against `budget`: the total across
  /// every accumulator sharing `shared_held` when given, else this one's
  /// `held` (which must already count them).
  Status Charge(uint64_t added, uint64_t budget,
                std::atomic<uint64_t>* shared_held) const {
    const uint64_t held_now =
        shared_held != nullptr
            ? shared_held->fetch_add(added, std::memory_order_relaxed) + added
            : held;
    if (held_now > budget) {
      return Status::ResourceExhausted(
          "brackets hold more elements than the memory budget; increase "
          "samples_per_run or the budget");
    }
    return Status::OK();
  }
};

/// Rejects estimates whose bracket is not a certificate.
template <typename K>
Status ValidateBrackets(const std::vector<QuantileEstimate<K>>& estimates) {
  for (const auto& e : estimates) {
    if (e.lower_clamped || e.upper_clamped) {
      return Status::FailedPrecondition(
          "an estimate's bounds were clamped; its bracket is not certified");
    }
  }
  return Status::OK();
}

/// One filter scan over `provider`: counts the elements below each bracket
/// and collects the elements inside it, accumulating into `acc` so several
/// providers (shards of one logical dataset) can share one accumulator.
/// When several scans run concurrently (one accumulator each), pass the
/// same `shared_held` to every call so the memory budget bounds the TOTAL
/// held across all of them while they run, not just each shard's share.
template <typename K>
Status AccumulateBrackets(const RunProvider<K>& provider,
                          const std::vector<QuantileEstimate<K>>& estimates,
                          const ReadOptions& options,
                          uint64_t memory_budget_elements,
                          BracketAccumulator<K>* acc,
                          std::atomic<uint64_t>* shared_held = nullptr) {
  std::vector<K> buffer;
  std::unique_ptr<RunSource<K>> reader = provider.OpenRuns(options);
  while (true) {
    auto more = reader->NextRun(&buffer);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (const K& v : buffer) {
      for (size_t q = 0; q < estimates.size(); ++q) {
        const QuantileEstimate<K>& e = estimates[q];
        if (v < e.lower) {
          ++acc->below[q];
        } else if (!(e.upper < v)) {  // lower <= v <= upper
          acc->kept[q].push_back(v);
          ++acc->held;
          OPAQ_RETURN_IF_ERROR(
              acc->Charge(1, memory_budget_elements, shared_held));
        }
      }
    }
  }
  return Status::OK();
}

/// Finishes the pass: selects the element of rank `target_rank - below`
/// within each kept set (Lemmas 1-2 place it there for certified brackets).
template <typename K>
Result<std::vector<K>> SelectWithinBrackets(
    const std::vector<QuantileEstimate<K>>& estimates,
    BracketAccumulator<K>* acc) {
  std::vector<K> out;
  out.reserve(estimates.size());
  for (size_t q = 0; q < estimates.size(); ++q) {
    const QuantileEstimate<K>& e = estimates[q];
    if (e.target_rank <= acc->below[q] ||
        e.target_rank > acc->below[q] + acc->kept[q].size()) {
      // Would indicate a broken bracket; Lemmas 1-2 forbid this for
      // certified (unclamped) bounds on the data the estimate came from.
      return Status::Internal(
          "target rank falls outside its bracket; was the estimate computed "
          "from a different file?");
    }
    Xoshiro256 rng(e.target_rank);
    out.push_back(SelectKth(acc->kept[q].data(), acc->kept[q].size(),
                            e.target_rank - acc->below[q] - 1,
                            SelectAlgorithm::kIntroSelect, rng));
  }
  return out;
}

/// The default memory budget: 4 * q * max_rank_error — twice Lemma 3's
/// 2n/s-per-bracket bound, as a generous default.
template <typename K>
uint64_t DefaultExactBudget(const std::vector<QuantileEstimate<K>>& estimates) {
  if (estimates.empty()) return 0;
  return 4 * estimates.size() * estimates.front().max_rank_error;
}

}  // namespace internal_exact

/// The paper's §4 extension, batch form: recovers the *exact* values for
/// several quantiles with ONE extra pass over the data. The pass keeps only
/// the elements inside each [estimate.lower, estimate.upper] — at most 2n/s
/// per bracket by Lemma 3 — and counts the elements below each lower bound;
/// the exact quantile is then the element of rank (psi - count_below) within
/// the kept set, found by selection in memory.
///
/// The scan streams through `RunProvider::OpenRuns(options)`, so it works on
/// any storage backend and — with `options.io_mode == kAsync` — overlaps the
/// candidate-interval filtering with the next run's read(s), exactly like
/// the sample phase.
///
/// Fails with FailedPrecondition if any bound was clamped (the bracket is
/// then not certified) and with ResourceExhausted if the kept sets exceed
/// `memory_budget_elements` (0 = 4 * q * max_rank_error).
template <typename K>
Result<std::vector<K>> ExactQuantilesSecondPass(
    const RunProvider<K>& provider,
    const std::vector<QuantileEstimate<K>>& estimates,
    const ReadOptions& options, uint64_t memory_budget_elements = 0) {
  OPAQ_RETURN_IF_ERROR(internal_exact::ValidateBrackets(estimates));
  if (estimates.empty()) return std::vector<K>{};
  if (memory_budget_elements == 0) {
    memory_budget_elements = internal_exact::DefaultExactBudget(estimates);
  }
  internal_exact::BracketAccumulator<K> acc(estimates.size());
  OPAQ_RETURN_IF_ERROR(internal_exact::AccumulateBrackets(
      provider, estimates, options, memory_budget_elements, &acc));
  return internal_exact::SelectWithinBrackets(estimates, &acc);
}

/// Single-quantile form of the extra pass (budget default: the single
/// bracket's 4 * max_rank_error).
template <typename K>
Result<K> ExactQuantileSecondPass(const RunProvider<K>& provider,
                                  const QuantileEstimate<K>& estimate,
                                  const ReadOptions& options,
                                  uint64_t memory_budget_elements = 0) {
  auto values = ExactQuantilesSecondPass(
      provider, std::vector<QuantileEstimate<K>>{estimate}, options,
      memory_budget_elements);
  if (!values.ok()) return values.status();
  return (*values)[0];
}

}  // namespace opaq

#endif  // OPAQ_CORE_EXACT_H_
