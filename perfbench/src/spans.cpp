#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_active{nullptr};
std::atomic<std::uint64_t> g_generation{0};

// Per-thread cache of the buffer this thread writes for one tracer; the
// generation tells a stale entry (from an earlier tracer) apart.
struct BufferCache {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_cache;
thread_local SpanContext t_context;

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

SpanContext& current_context() { return t_context; }

Tracer::Tracer(std::uint32_t stride)
    : stride_(stride == 0 ? 1 : stride),
      generation_(g_generation.fetch_add(1) + 1) {}

Tracer::~Tracer() {
  Tracer* self = this;
  g_active.compare_exchange_strong(self, nullptr);
}

Tracer* Tracer::active() { return g_active.load(std::memory_order_relaxed); }
void Tracer::install() { g_active.store(this, std::memory_order_release); }
void Tracer::uninstall() { g_active.store(nullptr, std::memory_order_release); }

Tracer::Buffer& Tracer::buffer() {
  if (t_cache.generation != generation_) {
    std::scoped_lock lock(mu_);
    auto b = std::make_unique<Buffer>();
    b->thread_index = buffers_.size() + 1;
    b->spans.reserve(1 << 14);
    t_cache.generation = generation_;
    t_cache.buffer = b.get();
    buffers_.push_back(std::move(b));
  }
  return *static_cast<Buffer*>(t_cache.buffer);
}

std::uint64_t Tracer::next_id() {
  Buffer& b = buffer();
  return (b.thread_index << 40) | ++b.next;
}

void Tracer::record(const Span& s) { buffer().spans.push_back(s); }

std::vector<Span> Tracer::collect() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> out;
  for (const auto& b : buffers_) {
    out.insert(out.end(), b->spans.begin(), b->spans.end());
  }
  std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return out;
}

ScopedSpan::ScopedSpan(const char* name, std::uint32_t arg) {
  Tracer* t = Tracer::active();
  SpanContext& ctx = t_context;
  if (t == nullptr || ctx.request == kNoRequest) return;
  tracer_ = t;
  span_.name = name;
  span_.id = t->next_id();
  span_.parent = ctx.parent;
  span_.request = ctx.request;
  span_.arg = arg;
  ctx.parent = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = now_ns();
  t_context.parent = span_.parent;
  tracer_->record(span_);
}

SpanContext RequestScope::context_for(std::uint32_t request) {
  const Tracer* t = Tracer::active();
  if (t == nullptr || !t->samples(request)) return {};
  return SpanContext{request, 0};
}

RequestScope::RequestScope(std::uint32_t request)
    : ctx_(context_for(request)), span_("request") {}

bool write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<std::string>& header) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const std::string& line : header) {
    std::fprintf(f, "# %s\n", line.c_str());
  }
  std::fprintf(f, "id\tparent\trequest\targ\tname\tstart_ns\tend_ns\n");
  const std::uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%u\t%u\t%s\t%llu\t%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.request, s.arg,
                 s.name, static_cast<unsigned long long>(s.start_ns - t0),
                 static_cast<unsigned long long>(s.end_ns - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
