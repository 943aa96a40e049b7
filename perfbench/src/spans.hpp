#pragma once
// In-memory span recorder for the traced run. Spans are taken in the
// benchmark's own code, around its calls into the library's public API
// (spawn, join, await, fulfill, one app run); nothing inside the library is
// instrumented. Each span carries its name, start and end, the span that
// caused it and the request it belongs to.
//
// Tracing is off unless a Tracer is installed, and only requests the tracer
// samples record spans, so the untraced passes pay one relaxed load and a
// thread-local read per span site. The clock and quantile helpers the
// readouts share live here too.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

std::uint64_t now_ns();

/// Linear-interpolated quantile q ∈ [0, 1] of `v`; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

inline constexpr std::uint32_t kNoRequest = 0xffffffffu;

struct Span {
  const char* name = nullptr;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0: no parent (a request span)
  std::uint32_t request = kNoRequest;
  std::uint32_t arg = 0;     ///< index within the request (promise-handoff)
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// What a thread is working under: the request and its innermost open span.
/// Task bodies capture it at spawn and restore it when they run, so spans
/// link across threads and across inline execution.
struct SpanContext {
  std::uint32_t request = kNoRequest;
  std::uint64_t parent = 0;
};

SpanContext& current_context();

class Tracer {
 public:
  /// Records spans of every `stride`-th request.
  explicit Tracer(std::uint32_t stride);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The installed tracer, or nullptr while tracing is off.
  static Tracer* active();
  void install();
  static void uninstall();

  bool samples(std::uint32_t request) const {
    return request % stride_ == 0;
  }
  std::uint64_t next_id();
  void record(const Span& s);

  /// Every span recorded so far (call once the pass has quiesced).
  std::vector<Span> collect() const;

 private:
  struct Buffer {
    std::uint64_t thread_index = 0;
    std::uint64_t next = 0;
    std::vector<Span> spans;
  };
  Buffer& buffer();

  const std::uint32_t stride_;
  const std::uint64_t generation_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mu_
};

/// Swaps the calling thread's span context for the scope's lifetime.
class ContextScope {
 public:
  explicit ContextScope(SpanContext ctx)
      : saved_(current_context()) {
    current_context() = ctx;
  }
  ~ContextScope() { current_context() = saved_; }
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  SpanContext saved_;
};

/// One span around the enclosed call; a no-op unless the thread works for
/// a sampled request of the installed tracer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t arg = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;
  Span span_;
};

/// Opens request `request`: sets the thread's context (sampled requests
/// only) and records the request span around the scope.
class RequestScope {
 public:
  explicit RequestScope(std::uint32_t request);

 private:
  static SpanContext context_for(std::uint32_t request);
  ContextScope ctx_;
  ScopedSpan span_;
};

/// Writes spans as tab-separated lines (id, parent, request, arg, name,
/// start_ns, end_ns; times relative to the earliest span), after a header
/// of `#`-prefixed comment lines.
bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& header);

}  // namespace perfbench
