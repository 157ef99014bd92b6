// Program-independent pieces of the repository benchmark:
//
//  * TailPercentile — the percentile ladder with a sample-count floor;
//  * SlicedPercentile — a percentile robust to bursts of outside load;
//  * RunClosedLoop  — N client threads, each sending its next request
//                     only after the previous answer returned;
//  * TaskPool       — a small FIFO worker pool returning futures;
//  * RequestSpans   — in-memory spans of one request, reduced to self
//                     time per name by AddSelfTimes;
//  * JsonObject     — a flat JSON object writer.
//
// Nothing here depends on the TReX libraries (common/clock.h is
// header-only), so bench_core_test.cc tests it alone.
#ifndef TREX_PERFBENCH_BENCH_CORE_H_
#define TREX_PERFBENCH_BENCH_CORE_H_

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"

namespace trex {
namespace perfbench {

// ---------------------------------------------------------------------
// Percentiles.

// Nearest-rank percentile of a sample: the value at rank ceil(q * n).
struct Percentile {
  double q = 0.0;        // In (0, 1).
  int64_t value = 0;     // The sample at that rank.
  size_t beyond = 0;     // Samples ranked strictly above it.
  size_t samples = 0;    // Sample count.
};

inline size_t NearestRank(double q, size_t n) {
  size_t rank = static_cast<size_t>(q * static_cast<double>(n) + 1.0 - 1e-9);
  return std::clamp<size_t>(rank, 1, n);
}

// The value at quantile `q` of `sorted` (ascending, non-empty).
inline Percentile PercentileOf(const std::vector<int64_t>& sorted, double q) {
  Percentile p;
  p.q = q;
  p.samples = sorted.size();
  if (sorted.empty()) return p;
  const size_t rank = NearestRank(q, sorted.size());
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  return p;
}

// The highest percentile of the ladder 50, 90, 95, 99, 99.9, 99.99 that
// has at least `min_beyond` samples beyond it, with its sample count.
// A sample too small for even the median returns q = 0.
inline Percentile TailPercentile(const std::vector<int64_t>& sorted,
                                 size_t min_beyond = 10) {
  static const double kLadder[] = {0.5, 0.9, 0.95, 0.99, 0.999, 0.9999};
  Percentile best;
  best.samples = sorted.size();
  for (double q : kLadder) {
    Percentile p = PercentileOf(sorted, q);
    if (sorted.empty() || p.beyond < min_beyond) break;
    best = p;
  }
  return best;
}

// The median over consecutive slices of `slice` requests (the last one
// takes the remainder) of each slice's percentile `q`, from latencies in
// request order. A burst of outside load then moves one slice's value,
// not the result. Fewer than two slices' worth of requests give the
// percentile of them all.
inline double SlicedPercentile(const std::vector<int64_t>& by_request,
                               double q, size_t slice) {
  const size_t n = by_request.size();
  const size_t slices = std::max<size_t>(1, n / std::max<size_t>(slice, 1));
  std::vector<double> values;
  for (size_t s = 0; s < slices; ++s) {
    const size_t begin = s * slice;
    const size_t end = s + 1 == slices ? n : begin + slice;
    std::vector<int64_t> part(by_request.begin() + begin,
                              by_request.begin() + end);
    std::sort(part.begin(), part.end());
    values.push_back(static_cast<double>(PercentileOf(part, q).value));
  }
  std::sort(values.begin(), values.end());
  const size_t m = values.size();
  return m % 2 == 1 ? values[m / 2] : 0.5 * (values[m / 2 - 1] + values[m / 2]);
}

// ---------------------------------------------------------------------
// Closed-loop driver.

struct LoopTotals {
  uint64_t attempted = 0;  // Requests whose future was waited on.
  uint64_t failed = 0;     // Of those, the ones judged failed.
  std::vector<int64_t> latencies_ns;  // One per attempted request, sorted.
  std::vector<int64_t> by_request;    // The same, at [request index].
  double wall_seconds = 0.0;
};

// Runs `clients` threads for `duration_ns`. Each claims the next request
// index from a shared counter, calls submit(index), waits on the future
// and passes the outcome to judge(client, index, outcome, start, end),
// which returns whether the request succeeded. A submit or get that
// throws counts as a failure; every issued future is waited on before
// RunClosedLoop returns. judge runs on client threads concurrently.
template <typename Outcome>
LoopTotals RunClosedLoop(
    size_t clients, int64_t duration_ns,
    const std::function<std::future<Outcome>(uint64_t index)>& submit,
    const std::function<bool(size_t client, uint64_t index, Outcome& outcome,
                             int64_t start_ns, int64_t end_ns)>& judge) {
  std::atomic<uint64_t> next{0};
  std::vector<LoopTotals> per_client(clients);
  std::vector<std::vector<uint64_t>> indices(clients);
  const int64_t begin = NowNanos();
  const int64_t stop_at = begin + duration_ns;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopTotals& mine = per_client[c];
      while (NowNanos() < stop_at) {
        const uint64_t index = next.fetch_add(1, std::memory_order_relaxed);
        const int64_t start = NowNanos();
        int64_t end = 0;
        bool ok = false;
        try {
          std::future<Outcome> future = submit(index);
          Outcome outcome = future.get();
          end = NowNanos();
          ok = judge(c, index, outcome, start, end);
        } catch (...) {
          ok = false;
        }
        if (end == 0) end = NowNanos();
        mine.latencies_ns.push_back(end - start);
        indices[c].push_back(index);
        ++mine.attempted;
        if (!ok) ++mine.failed;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoopTotals totals;
  totals.wall_seconds = static_cast<double>(NowNanos() - begin) * 1e-9;
  for (LoopTotals& c : per_client) {
    totals.attempted += c.attempted;
    totals.failed += c.failed;
    totals.latencies_ns.insert(totals.latencies_ns.end(),
                               c.latencies_ns.begin(), c.latencies_ns.end());
  }
  // Every index below `attempted` was claimed by exactly one client.
  totals.by_request.resize(totals.attempted);
  for (size_t c = 0; c < clients; ++c) {
    for (size_t j = 0; j < indices[c].size(); ++j) {
      totals.by_request[indices[c][j]] = per_client[c].latencies_ns[j];
    }
  }
  std::sort(totals.latencies_ns.begin(), totals.latencies_ns.end());
  return totals;
}

// ---------------------------------------------------------------------
// Worker pool.

// FIFO pool of `threads` workers. The destructor runs every queued task
// and joins the workers, so no future it returned is left unresolved.
class TaskPool {
 public:
  explicit TaskPool(size_t threads) {
    for (size_t i = 0; i < std::max<size_t>(threads, 1); ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }
  ~TaskPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }
  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  template <typename F>
  std::future<std::invoke_result_t<F>> Submit(F f) {
    auto task =
        std::make_shared<std::packaged_task<std::invoke_result_t<F>()>>(
            std::move(f));
    std::future<std::invoke_result_t<F>> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;  // Guarded by mu_.
  bool stopping_ = false;                    // Guarded by mu_.
  std::vector<std::thread> workers_;         // Declared last: uses the above.
};

// ---------------------------------------------------------------------
// Spans.

// One timed call. Spans of a request share `query`; `parent` is the index
// of the enclosing span within the same request, or -1 for the root.
struct Span {
  uint64_t query = 0;
  int32_t id = 0;
  int32_t parent = -1;
  const char* name = "";  // Static string.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Spans of one request, opened and closed in stack order.
class RequestSpans {
 public:
  explicit RequestSpans(uint64_t query) : query_(query) {}

  // Opens a span under the innermost open one; returns its id.
  int32_t Open(const char* name, int64_t start_ns = 0) {
    Span s;
    s.query = query_;
    s.id = static_cast<int32_t>(spans_.size());
    s.parent = open_.empty() ? -1 : open_.back();
    s.name = name;
    s.start_ns = start_ns != 0 ? start_ns : NowNanos();
    spans_.push_back(s);
    open_.push_back(s.id);
    return s.id;
  }
  void Close(int64_t end_ns = 0) {
    spans_[open_.back()].end_ns = end_ns != 0 ? end_ns : NowNanos();
    open_.pop_back();
  }
  // Re-roots this request under a new outermost span (the client side,
  // which opens before and closes after the worker's spans).
  void WrapInRoot(const char* name, int64_t start_ns, int64_t end_ns) {
    for (Span& s : spans_) {
      s.id += 1;
      s.parent = s.parent < 0 ? 0 : s.parent + 1;
    }
    Span root;
    root.query = query_;
    root.name = name;
    root.start_ns = start_ns;
    root.end_ns = end_ns;
    spans_.insert(spans_.begin(), root);
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint64_t query_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(RequestSpans* spans, const char* name) : spans_(spans) {
    spans_->Open(name);
  }
  ~ScopedSpan() { spans_->Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  RequestSpans* spans_;
};

// Self time per span name: a span's duration minus the durations of its
// direct children (children of one request never overlap).
struct SelfTimes {
  std::map<std::string, int64_t> self_ns;
  std::map<std::string, uint64_t> count;
};

inline void AddSelfTimes(const std::vector<Span>& request, SelfTimes* out) {
  std::vector<int64_t> child_ns(request.size(), 0);
  for (const Span& s : request) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  for (const Span& s : request) {
    out->self_ns[s.name] += (s.end_ns - s.start_ns) - child_ns[s.id];
    out->count[s.name] += 1;
  }
}

// Writes spans as tab-separated lines: query id parent name start end.
inline bool WriteSpans(const std::string& path,
                       const std::vector<std::vector<Span>>& requests) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "query\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (const std::vector<Span>& request : requests) {
    for (const Span& s : request) {
      std::fprintf(f, "%" PRIu64 "\t%d\t%d\t%s\t%" PRId64 "\t%" PRId64 "\n",
                   s.query, s.id, s.parent, s.name, s.start_ns, s.end_ns);
    }
  }
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------
// JSON.

// A flat JSON object built field by field; doubles keep 17 digits.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
    return *this;
  }
  JsonObject& Num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Str(const std::string& key, const std::string& v) {
    return Raw(key, "\"" + v + "\"");
  }
  JsonObject& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

}  // namespace perfbench
}  // namespace trex

#endif  // TREX_PERFBENCH_BENCH_CORE_H_
