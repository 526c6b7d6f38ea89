#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Nanoseconds on the steady clock; spans and the untraced timers share it.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One recorded span: a call into a layer, with the span that caused it and
// the request (one refresh or one query) it belongs to. `counts` holds the
// work counters read at the same boundary (rows probed, bytes written, ...).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<const char*, double>> counts;
};

// In-memory span store. Each thread appends to its own buffer; Dump writes
// every buffer once all recording threads have been joined. While no tracer
// is installed (the untraced run) a Span costs one pointer test.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The installed tracer, or nullptr when tracing is off.
  static Tracer* Active();
  static void Install(Tracer* tracer);

  // A run-level counter (not tied to a span), written into the dump.
  void Counter(const std::string& name, double value);

  // Writes spans and counters as tab-separated lines to `path`; false on an
  // I/O error.
  bool Dump(const std::string& path) const;

 private:
  friend class Span;

  // A fresh buffer for the calling thread, and that thread's index.
  std::vector<SpanRecord>* ThreadBuffer(uint64_t* thread_index);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers_;
  std::vector<std::pair<std::string, double>> counters_;
};

// Opens or closes span recording for the calling thread while alive. A
// traced run alternates slices of traced and untraced operations, so the
// untraced ones, interleaved in time with the traced ones, measure what the
// spans cost.
class TraceGate {
 public:
  explicit TraceGate(bool open);
  ~TraceGate();
  TraceGate(const TraceGate&) = delete;
  TraceGate& operator=(const TraceGate&) = delete;

 private:
  bool saved_;
};

// True when spans are recorded on the calling thread: a tracer is installed
// and the thread's gate is open.
bool Tracing();

// RAII span around one call. Nested spans on the same thread record the
// enclosing span as their parent and inherit its request id; a root span
// passed `request` != 0 starts a new request.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Attaches a work counter to this span (no-op when tracing is off).
  void Count(const char* key, double value);
  // Ends the span now instead of at scope exit (idempotent).
  void End();

 private:
  std::vector<SpanRecord>* buffer_ = nullptr;
  size_t index_ = 0;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
