#ifndef DWC_EXEC_THREAD_POOL_H_
#define DWC_EXEC_THREAD_POOL_H_

#include <cstddef>

namespace dwc {

// Kept only for perfbench, which reports the shared pool's worker count.
// The engine evaluates and refreshes on the calling thread and starts no
// thread of its own, so the pool has no workers.
class ThreadPool {
 public:
  size_t worker_count() const { return 0; }

  static ThreadPool& Shared() {
    static ThreadPool pool;
    return pool;
  }
};

}  // namespace dwc

#endif  // DWC_EXEC_THREAD_POOL_H_
