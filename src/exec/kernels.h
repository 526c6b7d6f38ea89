#ifndef DWC_EXEC_KERNELS_H_
#define DWC_EXEC_KERNELS_H_

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/thread_pool.h"
#include "relational/relation.h"
#include "relational/tuple.h"
#include "runtime/cancel.h"
#include "util/result.h"

namespace dwc {

// Knobs for the morsel-driven kernels (a subset of EvaluatorOptions,
// duplicated here so dwc_exec stays below dwc_algebra in the link order).
struct ExecOptions {
  // Degree of parallelism: 0 = auto (hardware concurrency), 1 = serial.
  size_t num_threads = 0;
  // Tuples per morsel (the unit of work the shared cursor hands out).
  size_t morsel_size = 1024;
  // Inputs smaller than this run serially: below it, fan-out overhead
  // (snapshotting, buffer merging) beats any speedup.
  size_t min_parallel_tuples = 4096;
  // Cooperative cancellation context (borrowed; may be null). Kernels check
  // it at every morsel boundary — serial paths chunk into morsels too when
  // a token is present, so a deadline is never overrun by more than one
  // morsel's worth of work — and charge produced tuples against its budget.
  const CancelToken* cancel = nullptr;

  size_t ResolvedThreads() const {
    return ThreadPool::ResolveThreads(num_threads);
  }
  // True when an input of `n` tuples should take the parallel path.
  bool ShouldParallelize(size_t n) const {
    return ResolvedThreads() > 1 && n >= min_parallel_tuples;
  }
  // The morsel-boundary cancellation point; Ok when no token is wired.
  Status CheckCancel() const {
    return cancel == nullptr ? Status::Ok() : cancel->Check();
  }
  // Budget accounting for `tuples` freshly materialized output tuples.
  Status ChargeTuples(size_t tuples) const {
    return cancel == nullptr ? Status::Ok() : cancel->Charge(tuples);
  }
};

// A half-open morsel of iteration indices.
struct MorselRange {
  size_t begin = 0;
  size_t end = 0;
};

inline size_t MorselCount(size_t n, size_t morsel_size) {
  return morsel_size == 0 ? (n > 0) : (n + morsel_size - 1) / morsel_size;
}

inline MorselRange MorselAt(size_t n, size_t morsel_size, size_t index) {
  size_t begin = index * morsel_size;
  size_t end = begin + morsel_size;
  return MorselRange{begin, end < n ? end : n};
}

// Stable-pointer snapshot of a tuple set for indexed morsel access (the set
// itself has no random access). Pointers stay valid while the relation is
// not mutated — which the evaluation contract guarantees.
std::vector<const Tuple*> SnapshotTuples(const Relation& rel);

// The workhorse shape shared by parallel select / difference /
// join-probe: every morsel produces output tuples into its own buffer
// (`produce(range, &buffer)`), buffers are merged into `out` serially in
// morsel order. Set semantics make the result independent of morsel
// interleaving, so any thread count yields SameContentAs-identical output.
//
// When `options` says serial (or `n` is small), produce runs once over the
// whole range on the calling thread — the exact serial behaviour. On error,
// the lowest-morsel-index status is returned and `out` is unspecified.
Status ParallelProduce(
    size_t n, const ExecOptions& options,
    const std::function<Status(MorselRange, std::vector<Tuple>*)>& produce,
    Relation* out);

// A hash index over build-side tuples, split into hash-disjoint partitions
// so it can be *built* in parallel: morsels scatter (key, tuple) pairs into
// per-morsel partition buckets, then one task per partition folds its
// buckets into a regular Relation::Index. Probes are lock-free reads.
class PartitionedIndex {
 public:
  // Build keys are tuple projections onto `key_indices`.
  static PartitionedIndex Build(const std::vector<const Tuple*>& tuples,
                                const std::vector<size_t>& key_indices,
                                const ExecOptions& options);

  // The bucket for `key` (a Tuple or a ProjectedRef), or nullptr when no
  // build tuple matches.
  template <typename Key>
  const std::vector<const Tuple*>* Find(const Key& key) const {
    const Relation::Index& part = partitions_[key.Hash() & mask_];
    auto it = part.find(key);
    return it == part.end() ? nullptr : &it->second;
  }

  size_t partition_count() const { return partitions_.size(); }

 private:
  std::vector<Relation::Index> partitions_;
  size_t mask_ = 0;
};

}  // namespace dwc

#endif  // DWC_EXEC_KERNELS_H_
