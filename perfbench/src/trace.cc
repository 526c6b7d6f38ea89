#include "trace.h"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};

// Per-thread recording state: the buffer this thread appends to (and the
// tracer that owns it), plus the innermost open span and its request.
struct ThreadState {
  Tracer* owner = nullptr;
  std::vector<SpanRecord>* buffer = nullptr;
  uint64_t thread_index = 0;
  uint64_t next_local_id = 1;
  uint64_t current_span = 0;
  uint64_t current_request = 0;
};

thread_local ThreadState t_state;
thread_local bool t_gate_open = true;

}  // namespace

Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_acquire); }

void Tracer::Install(Tracer* tracer) {
  g_tracer.store(tracer, std::memory_order_release);
}

void Tracer::Counter(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.emplace_back(name, value);
}

std::vector<SpanRecord>* Tracer::ThreadBuffer(uint64_t* thread_index) {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<std::vector<SpanRecord>>());
  buffers_.back()->reserve(1 << 14);
  *thread_index = buffers_.size();
  return buffers_.back().get();
}

bool Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (const auto& buffer : buffers_) {
    for (const SpanRecord& span : *buffer) {
      std::fprintf(out, "S\t%llu\t%llu\t%llu\t%s\t%lld\t%lld\t",
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.request), span.name,
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns));
      for (size_t i = 0; i < span.counts.size(); ++i) {
        std::fprintf(out, "%s%s=%.17g", i == 0 ? "" : ";",
                     span.counts[i].first, span.counts[i].second);
      }
      std::fputc('\n', out);
    }
  }
  for (const auto& [name, value] : counters_) {
    std::fprintf(out, "C\t%s\t%.17g\n", name.c_str(), value);
  }
  bool ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && ok;
}

bool Tracing() { return t_gate_open && Tracer::Active() != nullptr; }

TraceGate::TraceGate(bool open) : saved_(t_gate_open) { t_gate_open = open; }

TraceGate::~TraceGate() { t_gate_open = saved_; }

Span::Span(const char* name, uint64_t request) {
  Tracer* tracer = Tracer::Active();
  if (tracer == nullptr || !t_gate_open) {
    return;
  }
  ThreadState& state = t_state;
  if (state.owner != tracer) {
    state = ThreadState();
    state.owner = tracer;
    state.buffer = tracer->ThreadBuffer(&state.thread_index);
  }
  buffer_ = state.buffer;
  index_ = buffer_->size();
  saved_parent_ = state.current_span;
  saved_request_ = state.current_request;

  SpanRecord record;
  record.id = (state.thread_index << 40) | state.next_local_id++;
  record.parent = state.current_span;
  record.request = request != 0 ? request : state.current_request;
  record.name = name;
  state.current_span = record.id;
  state.current_request = record.request;
  buffer_->push_back(std::move(record));
  // Read the clock last, so the bookkeeping above is outside the span.
  (*buffer_)[index_].start_ns = NowNs();
}

Span::~Span() { End(); }

void Span::Count(const char* key, double value) {
  if (buffer_ != nullptr) {
    (*buffer_)[index_].counts.emplace_back(key, value);
  }
}

void Span::End() {
  if (buffer_ == nullptr) {
    return;
  }
  SpanRecord& record = (*buffer_)[index_];
  if (record.end_ns == 0) {
    record.end_ns = NowNs();
    t_state.current_span = saved_parent_;
    t_state.current_request = saved_request_;
  }
}

}  // namespace perfbench
