#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// Durable star-schema refresh stream followed by repeated restarts.
RunReport RunRefresh(const Options& options);

// Translated queries over scaled Figure 1: one closed-loop client with no
// writer (`mixed` false), or two governed open-loop readers beside an
// open-loop writer with the subplan cache on (`mixed` true).
RunReport RunQuery(const Options& options, bool mixed);

// A traced run traces the operations that start in every other half-second
// slice of the measured interval. The untraced ones, interleaved in time
// with the traced ones, give trace.overhead_frac and are not disturbed by
// drift over the run the way a separate untraced phase would be.
constexpr int64_t kTraceSliceNs = 500'000'000;
inline bool TracedSlice(bool trace, int64_t start_ns, int64_t now_ns) {
  return trace && ((now_ns - start_ns) / kTraceSliceNs) % 2 == 1;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
