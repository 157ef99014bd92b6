// trex_perfbench: the repository benchmark program.
//
// Three closed-loop workloads, each a generated corpus plus a zoo query
// stream, served by 2 client threads; a client sends its next query only
// after its previous answer returned.
//
//   hotkey_ta    wide_fanout, 2000 docs, hot_key stream (pool 12, Zipf
//                1.2, first keyword only), RPLs + ERPLs materialized for
//                the pool, served from a 4 MiB buffer pool: TA, block
//                decoding and buffer-pool misses do the work.
//   deep_era     deep_recursion, 400 docs, phrase_heavy stream, nothing
//                materialized: every query runs ERA from a resident index.
//   shift_adapt  zipf_skew, 1000 docs, shifting_topic pools served as
//                alternating 1000-query topic epochs, with the online
//                advisor ticked every 50 completed queries from a third
//                thread while the clients keep reading.
//
// --seed picks the corpus; the streams use a fixed seed unless
// --stream-seed is given. Every answer is checked against the forced-ERA
// answer computed in setup: bit for bit, except that a method may return
// other members of a tie at the k-th score.
//
// With --trace 0 the clients go through a 2-worker QueryExecutor calling
// TReX::Query, and the end-to-end metrics are printed. With --trace 1 that
// window is followed by a second one in which the benchmark's own
// 2-worker pool runs the same pipeline layer by layer (ParseNexi,
// TranslateQuery, ChooseStrategy, Evaluator::EvaluateWith) with a span
// around each call, and the per-layer metrics are printed. The executor
// wait comes from the QueryExecutor window instead: client latency minus
// the root of the trace TReX::Query returns. The last stdout line is one
// JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
//
// Usage:
//   trex_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --data DIR [--stream-seed N]
//   trex_perfbench --describe     (metric names and units, as JSON)
#include <sys/resource.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_core.h"
#include "common/clock.h"
#include "corpus/adversarial.h"
#include "corpus/workload_zoo.h"
#include "nexi/parser.h"
#include "nexi/translator.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "retrieval/strategy.h"
#include "trex/query_executor.h"
#include "trex/trex.h"

namespace trex {
namespace perfbench {
namespace {

constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
// qps and cpu_ms_per_query are medians over at least this many full
// passes through the query sequence.
constexpr size_t kMinPasses = 5;
// query_p50_ms and query_p99_ms are medians over slices of consecutive
// queries. A slice is the fewest full passes through the query sequence
// that hold this many queries, so it has 10 samples beyond its p99 and
// every slice serves the same query mix (on shift_adapt, one epoch of
// each topic).
constexpr size_t kMinLatencySlice = 1000;

size_t LatencySlice(size_t sequence_len) {
  return (kMinLatencySlice + sequence_len - 1) / sequence_len * sequence_len;
}

// ---------------------------------------------------------------------
// Metric catalog (BENCHMARK.json lists the same names and units).

struct MetricDef {
  const char* name;
  const char* unit;
};

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s"},           {"qps", "1/s"},
      {"query_p50_ms", "ms"},     {"query_p99_ms", "ms"},
      {"cpu_ms_per_query", "ms"}, {"peak_rss_mb", "MB"},
      {"space_amp", "ratio"},
  };
  return kDefs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"trex.executor_wait_us", "us"},
      {"trex.facade_us", "us"},
      {"nexi.parse_us", "us"},
      {"nexi.translate_us", "us"},
      {"retrieval.strategy_us", "us"},
      {"retrieval.era_us", "us"},
      {"retrieval.ta_us", "us"},
      {"retrieval.merge_us", "us"},
      {"retrieval.method_share.era", "ratio"},
      {"retrieval.method_share.ta", "ratio"},
      {"retrieval.method_share.merge", "ratio"},
      {"retrieval.heap_ops_per_query", "count"},
      {"retrieval.ta_useful_ratio", "ratio"},
      {"index.blocks_decoded_per_query", "count"},
      {"index.block_skip_ratio", "ratio"},
      {"index.sorted_accesses_per_query", "count"},
      {"index.postings_per_query", "count"},
      {"index.elements_scanned_per_query", "count"},
      {"index.bptree_seeks_per_query", "count"},
      {"index.snapshot_read_wait_us", "us"},
      {"index.snapshot_write_wait_us", "us"},
      {"storage.pages_per_query", "count"},
      {"storage.fault_ratio", "ratio"},
      {"storage.bytes_read_per_query", "B"},
      {"storage.latch_wait_us", "us"},
      {"storage.bytes_written", "B"},
      {"advisor.tick_ms", "ms"},
      {"advisor.lists_materialized", "count"},
      {"advisor.lists_dropped", "count"},
      {"advisor.churn_ratio", "ratio"},
      {"advisor.cold_queries_per_flip", "count"},
      {"setup.build_s", "s"},
      {"setup.materialize_s", "s"},
      {"setup.warm_s", "s"},
      {"obs.trace_overhead_pct", "%"},
  };
  return kDefs;
}

std::string Describe() {
  auto list = [](const std::vector<MetricDef>& defs) {
    std::string out = "[";
    for (size_t i = 0; i < defs.size(); ++i) {
      JsonObject o;
      o.Str("name", defs[i].name).Str("unit", defs[i].unit);
      out += (i > 0 ? "," : "") + o.str();
    }
    return out + "]";
  };
  JsonObject o;
  o.Raw("end_to_end", list(EndToEndMetrics()))
      .Raw("per_layer", list(PerLayerMetrics()));
  return o.str();
}

// ---------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;
  uint64_t corpus_seed = 0;  // Derived from seed.
  // The query stream keeps a fixed seed unless given: with a 12-query
  // Zipf pool the rank-0 query alone sets p50 and most of qps, so a pool
  // drawn per seed makes a different workload per seed (qps ranged
  // 122-623 over five seeds of hotkey_ta). 777 is the stream seed the zoo
  // scenarios in bench_suite use.
  uint64_t stream_seed = 777;
};

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(v);
    } else if (flag == "--trace") {
      args->trace = std::string(v) == "1";
    } else if (flag == "--data") {
      args->data_dir = v;
    } else if (flag == "--stream-seed") {
      args->stream_seed = std::strtoull(v, nullptr, 10);
    } else {
      return false;
    }
  }
  if (argc % 2 != 1 || args->workload.empty() || args->data_dir.empty() ||
      args->seconds <= 0) {
    return false;
  }
  args->corpus_seed = SplitMix64(args->seed) % 1000000007;
  return true;
}

// ---------------------------------------------------------------------
// Workloads.

struct WorkloadInputs {
  std::string name;
  std::vector<std::string> docs;  // Generated before any clock starts.
  uint64_t xml_bytes = 0;
  std::vector<ZooQuery> sequence;  // Cycled for the whole window.
  std::vector<ZooQuery> distinct;  // First-appearance order.
  std::vector<size_t> distinct_of;  // sequence position -> distinct index.
  // Fresh set-ups per --trace 0 run; setup_s is their median. The cheap
  // set-ups repeat more: their times are the noisiest.
  int setup_repeats = 9;
  bool materialize = false;  // RPLs + ERPLs for every distinct query.
  size_t cache_pages = 0;    // Serving buffer pool in 4 KiB pages; 0 = default.
  bool self_manage = false;  // Online advisor with count-triggered ticks.
  size_t epoch_len = 0;      // Queries per topic epoch (shift_adapt).
  size_t tick_every = 0;     // Completed queries between advisor ticks.
  SelfManagerOptions manager;
  WorkloadRecorderOptions recorder;
};

// shift_adapt's knobs: the topic flips every kEpoch queries, the advisor
// ticks every kTickEvery completed queries, and the recorder scales its
// weights by kDecay every kDecayEvery observations and forgets entries
// under kMinWeight, so a flipped-away topic leaves the sketch within 32
// queries and the first tick of the next epoch both adds the new
// topic's lists and drops the old ones.
constexpr size_t kEpoch = 1000;
constexpr size_t kTickEvery = 50;
constexpr uint64_t kDecayEvery = 16;
constexpr double kDecay = 0.1;
constexpr double kMinWeight = 0.05;
// Holds both topics' lists as the planner estimates them (it puts
// magma's ERPLs at ~2 MB where they take ~70 KB on disk), so plans follow
// the sketch; the drop at each flip comes from the sketch forgetting.
constexpr uint64_t kShiftDiskBudget = 3ull << 20;

void Generate(const DocumentGenerator& gen, WorkloadInputs* w) {
  w->docs.reserve(gen.num_documents());
  for (size_t i = 0; i < gen.num_documents(); ++i) {
    w->docs.push_back(gen.Generate(static_cast<DocId>(i)));
    w->xml_bytes += w->docs.back().size();
  }
}

// Keeps only the first keyword of "...[about(., w1 w2)]". TA reports
// partial scores for top-k members not yet seen on every list when it
// stops, so multi-keyword queries can fail the ERA check (see
// CHANGES.md); single-keyword TA is exact.
std::string FirstKeywordOnly(const std::string& nexi) {
  const std::string open = "about(., ";
  const size_t start = nexi.find(open);
  if (start == std::string::npos) return nexi;
  const size_t words = start + open.size();
  const size_t close = nexi.find(')', words);
  const size_t space = nexi.find(' ', words);
  if (space == std::string::npos || space > close) return nexi;
  return nexi.substr(0, space) + nexi.substr(close);
}

void IndexDistinct(WorkloadInputs* w) {
  for (const ZooQuery& q : w->sequence) {
    size_t d = 0;
    while (d < w->distinct.size() && !(w->distinct[d] == q)) ++d;
    if (d == w->distinct.size()) w->distinct.push_back(q);
    w->distinct_of.push_back(d);
  }
}

bool MakeWorkload(const Args& args, WorkloadInputs* w) {
  w->name = args.workload;
  if (w->name == "hotkey_ta") {
    WideFanoutOptions o;
    o.seed = args.corpus_seed;
    o.num_documents = 2000;
    Generate(WideFanoutGenerator(o), w);
    HotKeyStream stream(WideFanoutProfile(), args.stream_seed,
                        HotKeyOptions{12, 1.2});
    w->sequence = stream.Take(512);
    for (ZooQuery& q : w->sequence) q.nexi = FirstKeywordOnly(q.nexi);
    w->setup_repeats = 3;
    w->materialize = true;
    // A 4 MiB pool against the ~100 MB index keeps every corpus seed well
    // past the point where the hot lists stop fitting: at the default
    // 8 MiB the fault ratio jumped between 0 and 0.09 from seed to seed.
    w->cache_pages = 1024;
  } else if (w->name == "deep_era") {
    DeepRecursionOptions o;
    o.seed = args.corpus_seed;
    o.num_documents = 400;
    Generate(DeepRecursionGenerator(o), w);
    PhraseHeavyStream stream(DeepRecursionProfile(), args.stream_seed);
    w->sequence = stream.Take(128);
  } else if (w->name == "shift_adapt") {
    ZipfSkewOptions o;
    o.seed = args.corpus_seed;
    o.num_documents = 1000;
    Generate(ZipfSkewGenerator(o), w);
    ShiftingTopicOptions so;
    so.changepoint = kEpoch;
    so.pool_per_topic = 4;
    // Both topics draw on a hot planted term (magma, then basalt), so
    // each flip lands on large cold lists, not only the first one.
    StreamProfile profile = ZipfSkewProfile();
    profile.hot_terms = {"magma"};
    profile.cold_terms = {"basalt"};
    ShiftingTopicStream stream(profile, args.stream_seed, so);
    // One topic-A epoch then one topic-B epoch; cycling alternates them.
    w->sequence = stream.Take(2 * kEpoch);
    w->setup_repeats = 15;  // About 0.2 s each.
    w->self_manage = true;
    w->epoch_len = kEpoch;
    w->tick_every = kTickEvery;
    w->manager.costs = SelfManagerOptions::Costs::kEstimated;
    w->manager.disk_budget_bytes = kShiftDiskBudget;
    w->recorder.decay_every = kDecayEvery;
    w->recorder.decay = kDecay;
    w->recorder.min_weight = kMinWeight;
  } else {
    return false;
  }
  IndexDistinct(w);
  return true;
}

// ---------------------------------------------------------------------
// Setup.

struct SetupTimes {
  double build_s = 0, materialize_s = 0, warm_s = 0;
  double total() const { return build_s + materialize_s + warm_s; }
};

using Answer = std::vector<ScoredElement>;

bool SameAnswer(const Answer& got, const Answer& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const ScoredElement& a = got[i];
    const ScoredElement& b = want[i];
    if (i > 0 && ScoredElementGreater(a, got[i - 1])) return false;
    if (std::memcmp(&a.score, &b.score, sizeof(float)) != 0 ||
        a.element.docid != b.element.docid ||
        a.element.endpos != b.element.endpos ||
        a.element.sid != b.element.sid ||
        a.element.length != b.element.length) {
      return false;
    }
  }
  return true;
}

// A distinct query's forced-ERA top-k plus every element whose score
// ties the k-th one: a method may return other members of that tie than
// ERA's canonical (docid, endpos) order picks, and still be a top-k.
struct Reference {
  Answer top;
  Answer boundary_ties;  // Sorted by (docid, endpos).
};

bool KeyLess(const ScoredElement& a, const ScoredElement& b) {
  if (a.element.docid != b.element.docid) {
    return a.element.docid < b.element.docid;
  }
  return a.element.endpos < b.element.endpos;
}

Reference MakeReference(Answer all, size_t k) {
  Reference ref;
  const size_t n = k == 0 ? all.size() : std::min(k, all.size());
  ref.top.assign(all.begin(), all.begin() + n);
  if (n == 0 || n == all.size()) return ref;
  const float boundary = ref.top.back().score;
  for (const ScoredElement& e : all) {
    if (e.score == boundary) ref.boundary_ties.push_back(e);
  }
  std::sort(ref.boundary_ties.begin(), ref.boundary_ties.end(), KeyLess);
  return ref;
}

enum class Verdict { kExact, kTieReorder, kWrong };

// kExact: bit for bit ERA's answer. kTieReorder: the same scores bit for
// bit, in canonical order, differing from ERA only by other members of
// the k-th score's tie. Anything else is wrong.
Verdict Check(const Answer& got, const Reference& ref) {
  if (SameAnswer(got, ref.top)) return Verdict::kExact;
  if (got.size() != ref.top.size() || ref.boundary_ties.empty()) {
    return Verdict::kWrong;
  }
  const float boundary = ref.top.back().score;
  for (size_t i = 0; i < got.size(); ++i) {
    const ScoredElement& e = got[i];
    if (i > 0 && !ScoredElementGreater(got[i - 1], e)) return Verdict::kWrong;
    if (std::memcmp(&e.score, &ref.top[i].score, sizeof(float)) != 0) {
      return Verdict::kWrong;
    }
    if (SameAnswer({e}, {ref.top[i]})) continue;
    if (e.score != boundary) return Verdict::kWrong;
    auto it = std::lower_bound(ref.boundary_ties.begin(),
                               ref.boundary_ties.end(), e, KeyLess);
    if (it == ref.boundary_ties.end() || !SameAnswer({e}, {*it})) {
      return Verdict::kWrong;
    }
  }
  return Verdict::kTieReorder;
}

// The first position where `got` and `want` differ, for the error line.
std::string DescribeDiff(const Answer& got, const Answer& want) {
  auto show = [](const Answer& v, size_t i) {
    if (i >= v.size()) return std::string("none");
    char buf[96];
    std::snprintf(buf, sizeof(buf), "(score %.9g doc %u end %" PRIu64
                  " sid %u)", v[i].score,
                  static_cast<unsigned>(v[i].element.docid),
                  v[i].element.endpos,
                  static_cast<unsigned>(v[i].element.sid));
    return std::string(buf);
  };
  size_t i = 0;
  while (i < got.size() && i < want.size() &&
         SameAnswer({got[i]}, {want[i]})) {
    ++i;
  }
  return " rank " + std::to_string(i) + " got " + show(got, i) + " want " +
         show(want, i) + ", sizes " + std::to_string(got.size()) + "/" +
         std::to_string(want.size());
}

// Fresh-builds the index in `dir` and readies it for serving. With
// `refs`, also computes every distinct query's forced-ERA reference
// (untimed). Returns the serving handle.
Result<std::unique_ptr<TReX>> SetupOnce(const WorkloadInputs& w,
                                        const std::string& dir,
                                        SetupTimes* times,
                                        std::vector<Reference>* refs) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  Stopwatch watch;
  auto built = TReX::BuildFromDocuments(dir, w.docs);
  if (!built.ok()) return built.status();
  std::unique_ptr<TReX> trex = std::move(built).value();
  times->build_s = watch.ElapsedSeconds();

  watch.Restart();
  if (w.materialize) {
    for (const ZooQuery& q : w.distinct) {
      MaterializeStats stats;
      TREX_RETURN_IF_ERROR(trex->MaterializeFor(q.nexi, /*rpls=*/true,
                                                /*erpls=*/true, &stats));
    }
    TREX_RETURN_IF_ERROR(trex->index()->Flush());
  }
  times->materialize_s = watch.ElapsedSeconds();

  if (refs != nullptr) {
    refs->clear();
    for (const ZooQuery& q : w.distinct) {
      auto all = trex->QueryWith(RetrievalMethod::kEra, q.nexi, /*k=*/0);
      if (!all.ok()) return all.status();
      refs->push_back(
          MakeReference(std::move(all).value().result.elements, q.k));
    }
  }

  watch.Restart();
  if (!w.self_manage) {
    // Read-only workloads serve from a fresh read-shared handle.
    trex.reset();
    TrexOptions serving;
    if (w.cache_pages != 0) serving.index.cache_pages = w.cache_pages;
    auto opened = TReX::Open(dir, serving, OpenMode::kReadShared);
    if (!opened.ok()) return opened.status();
    trex = std::move(opened).value();
  }
  for (const ZooQuery& q : w.distinct) {
    TREX_RETURN_IF_ERROR(trex->Query(q.nexi, q.k).status());
  }
  times->warm_s = watch.ElapsedSeconds();

  if (w.self_manage) {
    TReX::SelfManagementOptions sm;
    sm.recorder = w.recorder;
    sm.loop.manager = w.manager;
    sm.loop.min_list_age_ticks = 1;
    sm.load_persisted = false;
    sm.start_background = false;
    TREX_RETURN_IF_ERROR(trex->EnableSelfManagement(std::move(sm)));
  }
  return trex;
}

// ---------------------------------------------------------------------
// One timed window.

struct Tally {
  uint64_t errors = 0, mismatches = 0;
  uint64_t tie_reorders = 0;  // Correct top-k, other members of a tie.
  std::string first_tie;
  uint64_t method[3] = {0, 0, 0};  // Indexed by RetrievalMethod.
  uint64_t era_after_first_epoch = 0;
  uint64_t ta_answers = 0, ta_sorted = 0;
  // Client latency minus TReX::Query's trace root, over answered queries:
  // QueryExecutor queueing, the snapshot read lock and the accounting.
  int64_t executor_wait_ns = 0;
  uint64_t executor_waits = 0;
  obs::ResourceUsage usage;
  std::string first_error;
  SelfTimes self;
  std::vector<std::vector<Span>> spans;
};

void Accumulate(const obs::ResourceUsage& u, obs::ResourceUsage* into) {
  into->pages_fetched += u.pages_fetched;
  into->pages_faulted += u.pages_faulted;
  into->bytes_read += u.bytes_read;
  into->bytes_decoded += u.bytes_decoded;
  into->list_fragments += u.list_fragments;
  into->blocks_decoded += u.blocks_decoded;
  into->blocks_skipped += u.blocks_skipped;
  into->postings_scanned += u.postings_scanned;
  into->sorted_accesses += u.sorted_accesses;
  into->random_accesses += u.random_accesses;
  into->elements_scanned += u.elements_scanned;
  into->heap_operations += u.heap_operations;
  into->cpu_nanos += u.cpu_nanos;
}

struct TickRecord {
  uint64_t completed_at = 0;  // The completed count when it started.
  int64_t duration_ns = 0;
  size_t materialized = 0, dropped = 0;
};

// Throughput and CPU over one full pass through the query sequence, so
// every sample serves the same query mix.
struct Pass {
  double qps = 0;
  double cpu_ms_per_query = 0;
};

// Time and process CPU when a pass's last query completed.
struct PassMark {
  uint64_t index = 0;  // Index of the query that closed the pass.
  int64_t ns = 0;
  double cpu_s = 0;
};

struct Window {
  LoopTotals loop;
  Tally tally;  // Merged over clients.
  std::vector<Pass> passes;  // One per full pass after the first.
  obs::MetricsSnapshot before, after;
  std::vector<TickRecord> ticks;
  std::string tick_error;

  uint64_t CounterDelta(const std::string& name) const {
    return after.counter(name) - before.counter(name);
  }
  uint64_t HistogramSumDelta(const std::string& name) const {
    auto a = after.histograms.find(name);
    auto b = before.histograms.find(name);
    uint64_t end = a == after.histograms.end() ? 0 : a->second.sum;
    uint64_t start = b == before.histograms.end() ? 0 : b->second.sum;
    return end - start;
  }
  double qps() const {
    return static_cast<double>(loop.attempted) / loop.wall_seconds;
  }
};

double CpuSeconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

// What one request hands back to its client: the answer, plus the spans
// of the layer-by-layer pipeline when traced.
struct Served {
  Result<QueryAnswer> answer = Status::Aborted("not run");
  RequestSpans spans{0};
};

const char* MethodSpanName(RetrievalMethod m) {
  switch (m) {
    case RetrievalMethod::kEra:
      return "retrieval.era";
    case RetrievalMethod::kTa:
      return "retrieval.ta";
    case RetrievalMethod::kMerge:
      return "retrieval.merge";
  }
  return "retrieval.?";
}

// TReX::Query's pipeline, called layer by layer with a span per call.
Served TracedQuery(TReX* trex, const ZooQuery& q, uint64_t index) {
  Served out;
  out.spans = RequestSpans(index);
  RequestSpans* sp = &out.spans;
  ScopedSpan facade(sp, "trex.facade");
  Index* idx = trex->index();
  obs::ResourceAccounting accounting;
  {
    auto read_lock = idx->ReaderLock();
    obs::ResourceScope scope(&accounting);
    out.answer = [&]() -> Result<QueryAnswer> {
      QueryAnswer answer;
      Result<NexiQuery> parsed = Status::Aborted("not parsed");
      {
        ScopedSpan s(sp, "nexi.parse");
        parsed = ParseNexi(q.nexi);
      }
      if (!parsed.ok()) return parsed.status();
      {
        ScopedSpan s(sp, "nexi.translate");
        auto translated = TranslateQuery(parsed.value(), idx->summary(),
                                         &idx->aliases(), idx->tokenizer());
        if (!translated.ok()) return translated.status();
        answer.translation = std::move(translated).value();
      }
      const TranslatedClause& clause = answer.translation.flattened;
      {
        ScopedSpan s(sp, "retrieval.strategy");
        answer.method = ChooseStrategy(idx, clause, q.k).method;
      }
      Evaluator evaluator(idx);
      ScopedSpan s(sp, MethodSpanName(answer.method));
      TREX_RETURN_IF_ERROR(
          evaluator.EvaluateWith(answer.method, clause, q.k, &answer.result));
      return answer;
    }();
  }
  if (out.answer.ok()) {
    out.answer.value().resources = accounting.Usage();
    if (WorkloadRecorder* rec = trex->workload_recorder()) {
      rec->Record(q.nexi, q.k);
    }
  }
  return out;
}

class Runner {
 public:
  Runner(const WorkloadInputs& w, const std::vector<Reference>& refs, TReX* trex)
      : w_(w), refs_(refs), trex_(trex) {}

  Window Run(double seconds, bool traced) {
    Window win;
    std::vector<Tally> tallies(kClients);
    completed_.store(0);
    std::atomic<bool> done{false};
    std::thread ticker;
    if (w_.self_manage) {
      ticker = std::thread([&] { TickLoop(&done, &win); });
    }
    marks_.clear();
    win.before = obs::Default().Snapshot();
    const int64_t duration = static_cast<int64_t>(seconds * 1e9);
    if (traced) {
      TaskPool pool(kWorkers);
      win.loop = RunClosedLoop<Served>(
          kClients, duration,
          [&](uint64_t i) {
            const ZooQuery* q = &Query(i);
            return pool.Submit([this, q, i] { return TracedQuery(trex_, *q, i); });
          },
          [&](size_t c, uint64_t i, Served& s, int64_t start, int64_t end) {
            s.spans.WrapInRoot("client", start, end);
            AddSelfTimes(s.spans.spans(), &tallies[c].self);
            tallies[c].spans.push_back(s.spans.spans());
            return Judge(&tallies[c], i, s.answer);
          });
    } else {
      QueryExecutor executor(trex_, kWorkers);
      win.loop = RunClosedLoop<Result<QueryAnswer>>(
          kClients, duration,
          [&](uint64_t i) {
            const ZooQuery& q = Query(i);
            return executor.Submit(q.nexi, q.k);
          },
          [&](size_t c, uint64_t i, Result<QueryAnswer>& r, int64_t start,
              int64_t end) {
            if (r.ok() && r.value().trace != nullptr) {
              tallies[c].executor_wait_ns +=
                  (end - start) - r.value().trace->root()->duration_nanos;
              ++tallies[c].executor_waits;
            }
            return Judge(&tallies[c], i, r);
          });
    }
    done.store(true);
    if (ticker.joinable()) ticker.join();
    win.passes = Passes();
    win.after = obs::Default().Snapshot();
    for (Tally& t : tallies) Merge(std::move(t), &win.tally);
    return win;
  }

 private:
  const ZooQuery& Query(uint64_t i) const {
    return w_.sequence[i % w_.sequence.size()];
  }

  bool Judge(Tally* t, uint64_t i, const Result<QueryAnswer>& r) {
    completed_.fetch_add(1, std::memory_order_relaxed);
    if ((i + 1) % w_.sequence.size() == 0) {
      PassMark mark{i, NowNanos(), CpuSeconds()};
      std::lock_guard<std::mutex> lock(marks_mu_);
      marks_.push_back(mark);
    }
    if (!r.ok()) {
      if (t->errors++ == 0) t->first_error = r.status().ToString();
      return false;
    }
    const QueryAnswer& a = r.value();
    const size_t m = static_cast<size_t>(a.method);
    ++t->method[m];
    if (a.method == RetrievalMethod::kEra && w_.epoch_len > 0 &&
        i >= w_.epoch_len) {
      ++t->era_after_first_epoch;
    }
    if (a.method == RetrievalMethod::kTa) {
      t->ta_answers += a.result.elements.size();
      t->ta_sorted += a.resources.sorted_accesses;
    }
    Accumulate(a.resources, &t->usage);
    const size_t d = w_.distinct_of[i % w_.sequence.size()];
    const Verdict verdict = Check(a.result.elements, refs_[d]);
    if (verdict == Verdict::kWrong) {
      if (t->mismatches++ == 0 && t->first_error.empty()) {
        t->first_error = "answer differs from ERA for " + w_.distinct[d].nexi +
                         " (method " + RetrievalMethodName(a.method) +
                         "):" + DescribeDiff(a.result.elements, refs_[d].top);
      }
      return false;
    }
    if (verdict == Verdict::kTieReorder && t->tie_reorders++ == 0) {
      t->first_tie = w_.distinct[d].nexi + " (method " +
                     RetrievalMethodName(a.method) + "):" +
                     DescribeDiff(a.result.elements, refs_[d].top);
    }
    return true;
  }

  // Rates between consecutive pass marks. The first pass is left out:
  // it includes the window's start-up.
  std::vector<Pass> Passes() {
    std::lock_guard<std::mutex> lock(marks_mu_);
    std::sort(marks_.begin(), marks_.end(),
              [](const PassMark& a, const PassMark& b) {
                return a.index < b.index;
              });
    std::vector<Pass> out;
    const double n = static_cast<double>(w_.sequence.size());
    for (size_t i = 1; i < marks_.size(); ++i) {
      const PassMark& a = marks_[i - 1];
      const PassMark& b = marks_[i];
      out.push_back(Pass{n / ((b.ns - a.ns) * 1e-9),
                         (b.cpu_s - a.cpu_s) * 1e3 / n});
    }
    return out;
  }

  // Calls TickNow each time the completed count crosses a multiple of
  // tick_every, from its own thread, while the clients keep serving.
  void TickLoop(const std::atomic<bool>* done, Window* win) {
    uint64_t next = w_.tick_every;
    while (!done->load()) {
      const uint64_t completed = completed_.load(std::memory_order_relaxed);
      if (completed < next) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        continue;
      }
      TickRecord rec;
      rec.completed_at = completed;
      AdvisorTickReport report;
      Stopwatch watch;
      Status s = trex_->advisor_loop()->TickNow(&report);
      rec.duration_ns = watch.ElapsedNanos();
      rec.materialized = report.lists_materialized;
      rec.dropped = report.lists_dropped;
      if (!s.ok() && win->tick_error.empty()) win->tick_error = s.ToString();
      win->ticks.push_back(rec);
      next = (completed / w_.tick_every + 1) * w_.tick_every;
    }
  }

  static void Merge(Tally&& from, Tally* into) {
    into->errors += from.errors;
    into->mismatches += from.mismatches;
    into->tie_reorders += from.tie_reorders;
    if (into->first_tie.empty()) into->first_tie = from.first_tie;
    for (int m = 0; m < 3; ++m) into->method[m] += from.method[m];
    into->era_after_first_epoch += from.era_after_first_epoch;
    into->ta_answers += from.ta_answers;
    into->ta_sorted += from.ta_sorted;
    into->executor_wait_ns += from.executor_wait_ns;
    into->executor_waits += from.executor_waits;
    Accumulate(from.usage, &into->usage);
    if (into->first_error.empty()) into->first_error = from.first_error;
    for (auto& [name, ns] : from.self.self_ns) into->self.self_ns[name] += ns;
    for (auto& [name, n] : from.self.count) into->self.count[name] += n;
    for (auto& s : from.spans) into->spans.push_back(std::move(s));
  }

  const WorkloadInputs& w_;
  const std::vector<Reference>& refs_;
  TReX* trex_;
  std::atomic<uint64_t> completed_{0};
  std::mutex marks_mu_;
  std::vector<PassMark> marks_;  // Guarded by marks_mu_.
};

// ---------------------------------------------------------------------
// Self-checks: each workload must exercise what it claims.

double Share(const Window& win, RetrievalMethod m) {
  const Tally& t = win.tally;
  const uint64_t total = t.method[0] + t.method[1] + t.method[2];
  return total == 0 ? 0.0
                    : static_cast<double>(t.method[static_cast<size_t>(m)]) /
                          static_cast<double>(total);
}

double FaultRatio(const Window& win) {
  const obs::ResourceUsage& u = win.tally.usage;
  return u.pages_fetched == 0 ? 0.0
                              : static_cast<double>(u.pages_faulted) /
                                    static_cast<double>(u.pages_fetched);
}

// Per complete topic epoch after the first: lists materialized and
// dropped by the ticks that started in it.
struct EpochChurn {
  size_t epoch = 0;
  size_t materialized = 0, dropped = 0;
};

std::vector<EpochChurn> ChurnPerFlip(const WorkloadInputs& w,
                                     const Window& win) {
  std::vector<EpochChurn> out;
  if (w.epoch_len == 0) return out;
  const size_t complete = win.loop.attempted / w.epoch_len;
  for (size_t e = 1; e < complete; ++e) out.push_back({e, 0, 0});
  for (const TickRecord& t : win.ticks) {
    const size_t e = t.completed_at / w.epoch_len;
    if (e >= 1 && e < complete) {
      out[e - 1].materialized += t.materialized;
      out[e - 1].dropped += t.dropped;
    }
  }
  return out;
}

std::vector<std::string> SelfCheck(const WorkloadInputs& w,
                                   const Window& win) {
  std::vector<std::string> problems;
  char buf[256];
  if (w.name == "hotkey_ta") {
    if (Share(win, RetrievalMethod::kTa) < 0.95) {
      std::snprintf(buf, sizeof(buf), "TA share %.4f < 0.95",
                    Share(win, RetrievalMethod::kTa));
      problems.push_back(buf);
    }
    if (!(FaultRatio(win) > 0)) problems.push_back("no buffer-pool faults");
  } else if (w.name == "deep_era") {
    if (Share(win, RetrievalMethod::kEra) != 1.0) {
      std::snprintf(buf, sizeof(buf), "ERA share %.4f != 1",
                    Share(win, RetrievalMethod::kEra));
      problems.push_back(buf);
    }
    if (FaultRatio(win) > 0.001) {
      std::snprintf(buf, sizeof(buf), "fault ratio %.5f > 0.001",
                    FaultRatio(win));
      problems.push_back(buf);
    }
  } else if (w.name == "shift_adapt") {
    const std::vector<EpochChurn> flips = ChurnPerFlip(w, win);
    if (flips.empty()) problems.push_back("no complete epoch after a flip");
    for (const EpochChurn& f : flips) {
      if (f.materialized == 0 || f.dropped == 0) {
        std::snprintf(buf, sizeof(buf),
                      "epoch %zu: %zu lists materialized, %zu dropped",
                      f.epoch, f.materialized, f.dropped);
        problems.push_back(buf);
      }
    }
    if (win.tally.method[static_cast<size_t>(RetrievalMethod::kEra)] == 0) {
      problems.push_back("no query ran ERA");
    }
    if (win.tally.method[static_cast<size_t>(RetrievalMethod::kMerge)] == 0) {
      problems.push_back("no query ran Merge");
    }
    if (!win.tick_error.empty()) {
      problems.push_back("advisor tick failed: " + win.tick_error);
    }
  }
  return problems;
}

// ---------------------------------------------------------------------
// Reporting.

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

class Metrics {
 public:
  void Set(const std::string& name, double v) { values_[name] = v; }
  // The metrics object for `defs`; false if any is missing or not finite.
  bool Render(const std::vector<MetricDef>& defs, std::string* out) const {
    JsonObject o;
    for (const MetricDef& d : defs) {
      auto it = values_.find(d.name);
      if (it == values_.end() || !std::isfinite(it->second)) {
        std::fprintf(stderr, "metric %s missing\n", d.name);
        return false;
      }
      JsonObject m;
      m.Num("value", it->second).Str("unit", d.unit);
      o.Raw(d.name, m.str());
    }
    *out = o.str();
    return true;
  }

 private:
  std::map<std::string, double> values_;
};

// The median of one field over the window's passes; NaN without any
// (the run then fails: it served too few queries).
double PassMedian(const Window& win, double Pass::*field) {
  std::vector<double> v;
  for (const Pass& p : win.passes) v.push_back(p.*field);
  return v.empty() ? std::nan("") : Median(std::move(v));
}

double PerQuery(double total, const Window& win) {
  return win.loop.attempted == 0
             ? 0.0
             : total / static_cast<double>(win.loop.attempted);
}

void LayerMetrics(const WorkloadInputs& w, const Window& traced,
                  const Window& plain, const SetupTimes& setup, Metrics* m) {
  const Tally& t = traced.tally;
  auto self_us = [&](const char* span) {
    auto it = t.self.self_ns.find(span);
    const double ns = it == t.self.self_ns.end() ? 0.0 : it->second;
    return PerQuery(ns * 1e-3, traced);
  };
  const Tally& p = plain.tally;
  m->Set("trex.executor_wait_us",
         p.executor_waits == 0 ? 0.0
                               : p.executor_wait_ns * 1e-3 /
                                     static_cast<double>(p.executor_waits));
  m->Set("trex.facade_us", self_us("trex.facade"));
  m->Set("nexi.parse_us", self_us("nexi.parse"));
  m->Set("nexi.translate_us", self_us("nexi.translate"));
  m->Set("retrieval.strategy_us", self_us("retrieval.strategy"));
  m->Set("retrieval.era_us", self_us("retrieval.era"));
  m->Set("retrieval.ta_us", self_us("retrieval.ta"));
  m->Set("retrieval.merge_us", self_us("retrieval.merge"));
  m->Set("retrieval.method_share.era", Share(traced, RetrievalMethod::kEra));
  m->Set("retrieval.method_share.ta", Share(traced, RetrievalMethod::kTa));
  m->Set("retrieval.method_share.merge",
         Share(traced, RetrievalMethod::kMerge));
  const obs::ResourceUsage& u = t.usage;
  m->Set("retrieval.heap_ops_per_query", PerQuery(u.heap_operations, traced));
  m->Set("retrieval.ta_useful_ratio",
         t.ta_sorted == 0 ? 0.0
                          : static_cast<double>(t.ta_answers) /
                                static_cast<double>(t.ta_sorted));
  m->Set("index.blocks_decoded_per_query", PerQuery(u.blocks_decoded, traced));
  const uint64_t blocks = u.blocks_decoded + u.blocks_skipped;
  m->Set("index.block_skip_ratio",
         blocks == 0 ? 0.0
                     : static_cast<double>(u.blocks_skipped) /
                           static_cast<double>(blocks));
  m->Set("index.sorted_accesses_per_query",
         PerQuery(u.sorted_accesses, traced));
  m->Set("index.postings_per_query", PerQuery(u.postings_scanned, traced));
  m->Set("index.elements_scanned_per_query",
         PerQuery(u.elements_scanned, traced));
  m->Set("index.bptree_seeks_per_query",
         PerQuery(traced.CounterDelta("storage.bptree.seeks"), traced));
  m->Set("index.snapshot_read_wait_us",
         PerQuery(traced.HistogramSumDelta("index.snapshot.read_wait_nanos") *
                      1e-3,
                  traced));
  m->Set("index.snapshot_write_wait_us",
         PerQuery(traced.HistogramSumDelta("index.snapshot.write_wait_nanos") *
                      1e-3,
                  traced));
  m->Set("storage.pages_per_query", PerQuery(u.pages_fetched, traced));
  m->Set("storage.fault_ratio", FaultRatio(traced));
  m->Set("storage.bytes_read_per_query", PerQuery(u.bytes_read, traced));
  m->Set("storage.latch_wait_us",
         PerQuery(
             traced.HistogramSumDelta("storage.bufpool.latch_wait_nanos") *
                 1e-3,
             traced));
  m->Set("storage.bytes_written",
         traced.CounterDelta("storage.pager.bytes_written"));

  double tick_ns = 0;
  size_t materialized = 0, dropped = 0;
  for (const TickRecord& r : traced.ticks) {
    tick_ns += r.duration_ns;
    materialized += r.materialized;
    dropped += r.dropped;
  }
  m->Set("advisor.tick_ms", traced.ticks.empty()
                                ? 0.0
                                : tick_ns * 1e-6 / traced.ticks.size());
  m->Set("advisor.lists_materialized", materialized);
  m->Set("advisor.lists_dropped", dropped);
  m->Set("advisor.churn_ratio",
         materialized == 0 ? 0.0
                           : static_cast<double>(dropped) /
                                 static_cast<double>(materialized));
  // Flips are the epoch starts after the first one inside the window.
  const uint64_t flips =
      w.epoch_len == 0
          ? 0
          : (traced.loop.attempted + w.epoch_len - 1) / w.epoch_len - 1;
  m->Set("advisor.cold_queries_per_flip",
         flips == 0 ? 0.0
                    : static_cast<double>(t.era_after_first_epoch) /
                          static_cast<double>(flips));
  m->Set("setup.build_s", setup.build_s);
  m->Set("setup.materialize_s", setup.materialize_s);
  m->Set("setup.warm_s", setup.warm_s);
  // The traced window also swaps QueryExecutor for the benchmark's pool
  // and runs after the untraced one, so this includes that swap and any
  // drift of the host between the two windows.
  m->Set("obs.trace_overhead_pct",
         100.0 *
             (PassMedian(plain, &Pass::qps) -
              PassMedian(traced, &Pass::qps)) /
             PassMedian(plain, &Pass::qps));
}

void PrintWindow(const char* label, const Window& win, size_t slice) {
  const Tally& t = win.tally;
  const Percentile p50 = PercentileOf(win.loop.latencies_ns, 0.5);
  const Percentile p99 = PercentileOf(win.loop.latencies_ns, 0.99);
  const Percentile tail = TailPercentile(win.loop.latencies_ns);
  std::printf(
      "[%s] %" PRIu64 " queries in %.2fs: %.1f qps, p50 %.4f ms, p99 %.4f ms "
      "(%zu samples, %zu beyond p99; highest supported percentile p%g = "
      "%.4f ms), fail_ratio %.6f (%" PRIu64 " failed: %" PRIu64
      " errors, %" PRIu64 " mismatches)\n",
      label, win.loop.attempted, win.loop.wall_seconds, win.qps(),
      p50.value * 1e-6, p99.value * 1e-6, p99.samples, p99.beyond,
      tail.q * 100, tail.value * 1e-6,
      win.loop.attempted == 0
          ? 0.0
          : static_cast<double>(win.loop.failed) / win.loop.attempted,
      win.loop.failed, t.errors, t.mismatches);
  std::printf("[%s] over %zu slices of %zu queries: median p50 %.4f ms, "
              "median p99 %.4f ms\n",
              label, std::max<size_t>(1, win.loop.attempted / slice), slice,
              SlicedPercentile(win.loop.by_request, 0.5, slice) * 1e-6,
              SlicedPercentile(win.loop.by_request, 0.99, slice) * 1e-6);
  std::printf("[%s] methods era/ta/merge %" PRIu64 "/%" PRIu64 "/%" PRIu64
              ", fault ratio %.5f\n",
              label, t.method[0], t.method[1], t.method[2], FaultRatio(win));
  if (!t.first_error.empty()) {
    std::printf("[%s] first failure: %s\n", label, t.first_error.c_str());
  }
  std::string passes;
  for (const Pass& p : win.passes) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), " %.0f/%.3f", p.qps, p.cpu_ms_per_query);
    passes += buf;
  }
  std::printf("[%s] qps/cpu_ms_per_query per pass over the sequence:%s\n",
              label, passes.c_str());
  if (!win.ticks.empty()) {
    int64_t total_ns = 0, max_ns = 0;
    size_t added = 0, dropped = 0;
    for (const TickRecord& r : win.ticks) {
      total_ns += r.duration_ns;
      max_ns = std::max(max_ns, r.duration_ns);
      added += r.materialized;
      dropped += r.dropped;
    }
    std::printf("[%s] %zu advisor ticks: mean %.2f ms, max %.2f ms, %zu "
                "lists added, %zu dropped\n",
                label, win.ticks.size(),
                total_ns * 1e-6 / win.ticks.size(), max_ns * 1e-6, added,
                dropped);
  }
  if (t.tie_reorders > 0) {
    std::printf("[%s] %" PRIu64 " answers break a k-th score tie "
                "differently from ERA; first: %s\n",
                label, t.tie_reorders, t.first_tie.c_str());
  }
}

int Run(const Args& args) {
  WorkloadInputs w;
  if (!MakeWorkload(args, &w)) {
    std::fprintf(stderr, "unknown workload '%s' (hotkey_ta, deep_era, "
                 "shift_adapt)\n", args.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed %" PRIu64 " corpus_seed %" PRIu64
              " stream_seed %" PRIu64 ": %zu docs, %.1f MB XML, %zu-query "
              "sequence (%zu distinct)\n",
              w.name.c_str(), args.seed, args.corpus_seed, args.stream_seed,
              w.docs.size(), w.xml_bytes / 1e6, w.sequence.size(),
              w.distinct.size());
  if (w.distinct.size() <= 16) {
    for (const ZooQuery& q : w.distinct) {
      std::printf("  query k=%zu %s\n", q.k, q.nexi.c_str());
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  const std::string dir = args.data_dir + "/" + w.name;

  // Set-up: fresh builds into the same directory; the last one serves.
  const int repeats = args.trace ? 1 : w.setup_repeats;
  std::vector<Reference> refs;
  std::vector<double> setup_totals;
  SetupTimes setup;
  std::unique_ptr<TReX> trex;
  for (int r = 0; r < repeats; ++r) {
    trex.reset();
    auto ready = SetupOnce(w, dir, &setup, r == 0 ? &refs : nullptr);
    if (!ready.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   ready.status().ToString().c_str());
      return 1;
    }
    trex = std::move(ready).value();
    setup_totals.push_back(setup.total());
    std::printf("setup %d: build %.3fs materialize %.3fs warm %.3fs, "
                "peak rss so far %.1f MB\n",
                r, setup.build_s, setup.materialize_s, setup.warm_s,
                PeakRssMb());
  }

  Runner runner(w, refs, trex.get());
  std::vector<std::string> problems;
  Window plain = runner.Run(args.seconds, /*traced=*/false);
  PrintWindow("untraced", plain, LatencySlice(w.sequence.size()));
  for (const std::string& p : SelfCheck(w, plain)) {
    problems.push_back("untraced: " + p);
  }
  uint64_t attempted = plain.loop.attempted;
  uint64_t failed = plain.loop.failed;

  Metrics metrics;
  std::string rendered;
  bool rendered_ok = false;
  if (!args.trace) {
    const std::vector<int64_t>& lat = plain.loop.latencies_ns;
    if (TailPercentile(lat).q < 0.99) {
      problems.push_back("too few queries for a p99 with 10 samples beyond");
    }
    if (plain.passes.size() < kMinPasses) {
      problems.push_back("too few passes over the query sequence");
    }
    metrics.Set("setup_s", Median(setup_totals));
    metrics.Set("qps", PassMedian(plain, &Pass::qps));
    const std::vector<int64_t>& in_order = plain.loop.by_request;
    const size_t slice = LatencySlice(w.sequence.size());
    metrics.Set("query_p50_ms", SlicedPercentile(in_order, 0.5, slice) * 1e-6);
    metrics.Set("query_p99_ms",
                SlicedPercentile(in_order, 0.99, slice) * 1e-6);
    metrics.Set("cpu_ms_per_query",
                PassMedian(plain, &Pass::cpu_ms_per_query));
    metrics.Set("peak_rss_mb", PeakRssMb());
    metrics.Set("space_amp", static_cast<double>(DirBytes(dir)) /
                                 static_cast<double>(w.xml_bytes));
    rendered_ok = metrics.Render(EndToEndMetrics(), &rendered);
  } else {
    Window traced = runner.Run(args.seconds, /*traced=*/true);
    PrintWindow("traced", traced, LatencySlice(w.sequence.size()));
    for (const std::string& p : SelfCheck(w, traced)) {
      problems.push_back("traced: " + p);
    }
    attempted += traced.loop.attempted;
    failed += traced.loop.failed;
    const std::string spans_path =
        args.data_dir + "/spans_" + w.name + ".tsv";
    if (!WriteSpans(spans_path, traced.tally.spans)) {
      problems.push_back("cannot write " + spans_path);
    }
    LayerMetrics(w, traced, plain, setup, &metrics);
    rendered_ok = metrics.Render(PerLayerMetrics(), &rendered);
  }
  if (!rendered_ok) problems.push_back("a metric could not be computed");
  for (const std::string& p : problems) {
    std::printf("self-check failed: %s\n", p.c_str());
  }
  const bool correct = failed == 0 && problems.empty();
  JsonObject result;
  result.Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Raw("metrics", rendered_ok ? rendered : "{}");
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace trex

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--describe") == 0) {
    std::printf("%s\n", trex::perfbench::Describe().c_str());
    return 0;
  }
  trex::perfbench::Args args;
  if (!trex::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: trex_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data DIR [--stream-seed N]\n"
                 "       trex_perfbench --describe\n");
    return 2;
  }
  return trex::perfbench::Run(args);
}
