// qkbfly_perfbench: one workload of the end-to-end benchmark per process.
//
//   qkbfly_perfbench --workload build_cold|serve_zipf|serve_churn
//                    --seed N --seconds S --trace 0|1 --out-dir DIR
//                    [--setup-only]
//
// Prints one "name value unit" line per metric, then a JSON object as the
// last line of stdout: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer split, measured by a separate traced pass (see README.md).
// --setup-only builds the first world's fixture, reports setup_s and exits;
// run.py uses it to take the median set-up time over fresh processes.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fixture.h"
#include "service/kb_service.h"
#include "util/rng.h"

namespace qkbfly::perfbench {
namespace {

/// Worlds generated from one --seed and measured in turn, each for an equal
/// share of --seconds. Throughput and latency vary by ~10% from one world
/// to the next (a few long wikia pages dominate densify); averaging four
/// halves that. The traced run splits the first world only.
constexpr int kWorlds = 4;

uint64_t WorldSeed(uint64_t seed, int world) { return seed * kWorlds + world; }

struct Args {
  Workload workload = Workload::kBuildCold;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Result {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<Metric> metrics;
  /// Printed by name but not part of the JSON: the issue-facing names
  /// (docs_per_s, answers_per_s, ...) and context such as sample counts.
  std::vector<Metric> notes;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = p * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double PerDoc(double total, size_t docs) {
  return docs == 0 ? 0.0 : total / static_cast<double>(docs);
}

template <typename F>
double TimeMs(F&& f) {
  WallTimer timer;
  f();
  return timer.ElapsedMillis();
}

/// Throughput and latency percentiles per repetition (one BuildKb, or one
/// serve session). A world reports their medians, so a burst of load from
/// elsewhere on the machine skews one repetition, not the world.
struct Repetitions {
  std::vector<double> per_s;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;

  void Add(size_t ops, double wall_s, const std::vector<double>& latency_ms) {
    per_s.push_back(static_cast<double>(ops) / wall_s);
    p50_ms.push_back(Percentile(latency_ms, 0.5));
    p99_ms.push_back(Percentile(latency_ms, 0.99));
  }
};

/// One world's untraced measurement.
struct Measured {
  Repetitions reps;
  Precision precision;
  size_t ops = 0;  ///< Documents built or questions answered.
  size_t attempted = 0;
  size_t failed = 0;
  bool correct = true;
};

// ---------------------------------------------------------------------------
// Per-layer split of the serial composed pipeline: nlp, parser, graph,
// densify and canon.populate over a document set.

struct ComposedSplit {
  OnTheFlyKb kb;
  SpanLog log;
  LayerCounts counts;
  CacheStats loose;  ///< LooseCandidates traffic of the composed pass.
};

ComposedSplit RunComposed(const Fixture& fx,
                          const std::vector<const Document*>& docs) {
  ComposedSplit split{fx.engine->MakeKb(), {}, {}, {}};
  CacheStats before = fx.ds->repository->loose_cache_stats();
  split.kb = ComposeSerial(fx, docs, &split.log, &split.counts);
  split.loose = fx.ds->repository->loose_cache_stats() - before;
  return split;
}

double TotalMs(const SpanLog& log, std::string_view name) {
  double total = 0.0;
  for (double d : log.DurationsMs(name)) total += d;
  return total;
}

/// Sum of the four layer self times under the "document" spans.
double LayerSumMs(const SpanLog& log) {
  return log.SelfMs("nlp.annotate") + log.SelfMs("graph.build") +
         log.SelfMs("densify") + log.SelfMs("canon.populate");
}

/// `loose` is the LooseCandidates traffic to report, over `loose_docs`
/// documents extracted.
void AddLayerMetrics(const ComposedSplit& split, const CacheStats& loose,
                     size_t loose_docs, std::vector<Metric>* m) {
  const SpanLog& log = split.log;
  const size_t docs = split.counts.docs;
  const double doc_ms = TotalMs(log, "document");
  std::vector<double> densify = log.DurationsMs("densify");
  m->push_back({"nlp.annotate_ms_per_doc", PerDoc(log.SelfMs("nlp.annotate"), docs), "ms"});
  m->push_back({"nlp.tokens_per_doc", PerDoc(static_cast<double>(split.counts.tokens), docs), "count"});
  m->push_back({"parser.parse_ms_per_doc", PerDoc(log.SelfMs("parser.parse"), docs), "ms"});
  m->push_back({"graph.build_ms_per_doc", PerDoc(log.SelfMs("graph.build"), docs), "ms"});
  m->push_back({"graph.nodes_per_doc", PerDoc(static_cast<double>(split.counts.nodes), docs), "count"});
  m->push_back({"graph.edges_per_doc", PerDoc(static_cast<double>(split.counts.edges), docs), "count"});
  m->push_back({"densify.ms_per_doc_p50", Percentile(densify, 0.5), "ms"});
  m->push_back({"densify.ms_per_doc_p99", Percentile(densify, 0.99), "ms"});
  m->push_back({"densify.edges_removed_per_doc", PerDoc(static_cast<double>(split.counts.edges_removed), docs), "count"});
  m->push_back({"densify.share_of_doc", doc_ms > 0 ? log.SelfMs("densify") / doc_ms : 0.0, "ratio"});
  m->push_back({"canon.populate_ms_per_doc", PerDoc(log.SelfMs("canon.populate"), docs), "ms"});
  m->push_back({"kb.loose_hit_rate", loose.HitRate(), "ratio"});
  m->push_back({"kb.loose_lookups_per_doc", PerDoc(static_cast<double>(loose.Lookups()), loose_docs), "count"});
}

/// Serialize / Deserialize cost and size of the given KB bytes, per KB.
void AddCanonMetrics(const Fixture& fx, const std::vector<const std::string*>& kbs,
                     std::vector<Metric>* m) {
  std::vector<double> ser_ms;
  std::vector<double> deser_ms;
  double bytes = 0.0;
  for (const std::string* b : kbs) {
    OnTheFlyKb kb = fx.engine->MakeKb();
    deser_ms.push_back(TimeMs([&] { (void)kb.Deserialize(*b); }));
    std::string again;
    ser_ms.push_back(TimeMs([&] { again = kb.Serialize(); }));
    bytes += static_cast<double>(b->size());
  }
  m->push_back({"canon.serialize_ms", Mean(ser_ms), "ms"});
  m->push_back({"canon.deserialize_ms", Mean(deser_ms), "ms"});
  m->push_back({"canon.kb_bytes_per_query", kbs.empty() ? 0.0 : bytes / static_cast<double>(kbs.size()), "bytes"});
}

// ---------------------------------------------------------------------------
// build_cold: QkbflyEngine::BuildKb over every document at 4 threads.

Measured MeasureBuildCold(const Fixture& fx, double seconds) {
  Measured out;
  std::string first;
  WallTimer window;
  while (window.ElapsedSeconds() < seconds) {
    std::vector<DocumentResult> results;
    WallTimer timer;
    OnTheFlyKb kb = fx.engine->BuildKb(fx.docs, &results);
    const double wall_s = timer.ElapsedSeconds();
    std::vector<double> doc_ms;
    for (const DocumentResult& r : results) doc_ms.push_back(r.seconds * 1e3);
    out.reps.Add(fx.docs.size(), wall_s, doc_ms);
    out.ops += fx.docs.size();
    std::string bytes = kb.Serialize();
    ++out.attempted;
    if (first.empty()) {
      first = std::move(bytes);
    } else if (bytes != first) {
      ++out.failed;
    }
  }
  // Every timed build must match the serial layer-composed build.
  OnTheFlyKb reference = ComposeSerial(fx, fx.docs, nullptr, nullptr);
  if (reference.Serialize() != first) out.failed = out.attempted;
  JudgeKb(fx, reference, &out.precision);
  return out;
}

Result TraceBuildCold(const Fixture& fx, const Args& args) {
  Result res;
  // Untraced references: the engine's own serial path, and the 4-thread
  // build the pool efficiency is measured against. The serial build and the
  // traced composition run twice each in ABBA order, and every timing keeps
  // its fastest pass, so a burst of load elsewhere on the machine does not
  // read as tracing overhead.
  EngineConfig serial_config = fx.engine->config();
  serial_config.num_threads = 1;
  QkbflyEngine serial(&fx.engine->repository(), &fx.engine->patterns(),
                      &fx.engine->stats(), serial_config);
  std::vector<std::string> built;
  double serial_ms = 0.0;
  std::unique_ptr<ComposedSplit> split;
  for (int pass = 0; pass < 4; ++pass) {
    if (pass == 1 || pass == 2) {
      auto traced = std::make_unique<ComposedSplit>(RunComposed(fx, fx.docs));
      if (split == nullptr ||
          TotalMs(traced->log, "document") < TotalMs(split->log, "document")) {
        split = std::move(traced);
      }
      continue;
    }
    WallTimer timer;
    OnTheFlyKb kb = serial.BuildKb(fx.docs);
    const double ms = timer.ElapsedMillis();
    serial_ms = serial_ms == 0.0 ? ms : std::min(serial_ms, ms);
    built.push_back(kb.Serialize());
  }
  double parallel_ms = 0.0;
  for (int i = 0; i < 3; ++i) {
    WallTimer timer;
    OnTheFlyKb kb = fx.engine->BuildKb(fx.docs);
    const double ms = timer.ElapsedMillis();
    parallel_ms = parallel_ms == 0.0 ? ms : std::min(parallel_ms, ms);
    built.push_back(kb.Serialize());
  }

  // Both engine paths must match the traced composition byte for byte.
  const std::string composed_bytes = split->kb.Serialize();
  for (const std::string& bytes : built) {
    ++res.attempted;
    if (bytes != composed_bytes) ++res.failed;
  }

  const double doc_ms = TotalMs(split->log, "document");
  const double layer_ms = LayerSumMs(split->log);
  const double layer_sum_ratio = layer_ms / doc_ms;
  // The four layer spans must cover the per-document wall up to glue code.
  constexpr double kLayerSumTolerance = 0.05;
  if (layer_sum_ratio < 1.0 - kLayerSumTolerance || layer_sum_ratio > 1.0) {
    res.correct = false;
  }

  AddLayerMetrics(*split, split->loose, split->counts.docs, &res.metrics);
  AddCanonMetrics(fx, {&composed_bytes}, &res.metrics);
  // build_cold never reaches retrieval, the service tiers or the store.
  for (const auto& [name, unit] : std::initializer_list<std::pair<const char*, const char*>>{
           {"retrieval.retrieve_ms", "ms"},     {"retrieval.docs_per_query", "count"},
           {"service.doc_hit_rate", "ratio"},   {"service.doc_evictions", "count"},
           {"service.doc_bytes_per_entry", "bytes"}, {"service.process_ms", "ms"},
           {"service.merge_ms", "ms"},          {"service.unattributed_ms", "ms"},
           {"store.query_hit_rate", "ratio"},   {"store.query_evictions", "count"},
           {"store.ingest_ms", "ms"},           {"store.save_ms", "ms"},
           {"store.facts", "count"},            {"store.resident_mb", "MB"}}) {
    res.metrics.push_back({name, 0.0, unit});
  }
  res.metrics.push_back({"util.pool_efficiency", layer_ms / (kThreads * parallel_ms), "ratio"});
  res.metrics.push_back({"trace.overhead", doc_ms / serial_ms - 1.0, "ratio"});
  res.metrics.push_back({"trace.layer_sum_ratio", layer_sum_ratio, "ratio"});
  res.notes = {{"untraced_serial_build_ms", serial_ms, "ms"},
               {"traced_serial_build_ms", doc_ms, "ms"},
               {"parallel_build_ms", parallel_ms, "ms"}};
  (void)split->log.WriteJsonLines(args.out_dir + "/spans-build_cold.jsonl");
  return res;
}

// ---------------------------------------------------------------------------
// serve_zipf / serve_churn: KbService::Answer from 4 closed-loop clients.
//
// The window is filled with sessions of kSessionQueries queries, each on a
// fresh KbService (cold tiers, warm process memos). A fixed session length
// fixes the hit/miss mix: in one unbounded session the 530-odd titles would
// all be cached within a second and every later answer would be a hit, so
// the mix, and p99 with it, would depend on how fast the machine is.

constexpr size_t kSessionQueries = 3000;
/// Queries between epoch bumps on serve_churn (two bumps per session).
constexpr size_t kBumpEvery = 1000;

/// KbService options of a serve workload: one worker (the 4 clients supply
/// the concurrency), default tier budgets on serve_zipf, and on serve_churn
/// a doc tier of 8 MiB, a tenth of the serving working set (~885 documents
/// at ~90 KB each).
KbServiceOptions ServeOptions(Workload workload) {
  KbServiceOptions options;
  options.num_threads = 1;
  if (workload == Workload::kServeChurn) options.cache.byte_budget = size_t{8} << 20;
  return options;
}

/// Zipf(s=1) sessions over the title universe. Each session draws its own
/// popularity order, so the hit-path p50 (set by the few most popular
/// titles; the top one alone takes ~15% of the traffic) averages over
/// several orders instead of hinging on one.
class ZipfSampler {
 public:
  ZipfSampler(size_t universe, uint64_t seed)
      : rng_(seed * 0x9E3779B97F4A7C15ULL + 0x51), order_(universe), cdf_(universe) {
    for (size_t i = 0; i < universe; ++i) order_[i] = static_cast<uint32_t>(i);
    double acc = 0.0;
    for (size_t r = 0; r < universe; ++r) cdf_[r] = acc += 1.0 / static_cast<double>(r + 1);
  }

  std::vector<uint32_t> Session(size_t n) {
    rng_.Shuffle(&order_);
    std::vector<uint32_t> out(n);
    for (uint32_t& q : out) {
      double u = rng_.NextDouble() * cdf_.back();
      size_t rank = static_cast<size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      q = order_[std::min(rank, order_.size() - 1)];
    }
    return out;
  }

 private:
  Rng rng_;
  std::vector<uint32_t> order_;
  std::vector<double> cdf_;
};

/// The first answer's KB bytes per query; every later answer must match.
/// The corpus text never changes across epoch bumps or sessions, so the
/// reference holds across epochs too (a stronger check than per-epoch
/// identity).
class References {
 public:
  bool Check(uint32_t query, std::string bytes) {
    const std::string* ref = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // try_emplace leaves `bytes` untouched when the key exists.
      auto [it, inserted] = bytes_.try_emplace(query, std::move(bytes));
      if (inserted) return true;
      ref = &it->second;
    }
    return *ref == bytes;
  }
  const std::unordered_map<uint32_t, std::string>& all() const { return bytes_; }

 private:
  std::mutex mutex_;
  std::unordered_map<uint32_t, std::string> bytes_;
};

struct Replay {
  Repetitions reps;
  size_t sessions = 0;
  size_t answers = 0;
  size_t attempted = 0;
  size_t failed = 0;
  double wall_s = 0.0;  ///< Sum of session walls (clients running).
  double busy_s = 0.0;  ///< Client time spent inside Answer().
  std::vector<ServiceStats> stats;  ///< Per answer, when recorded.
  std::vector<double> save_ms;      ///< FactStore::Save at each bump.
  CacheStats loose;                 ///< LooseCandidates traffic.
  CacheStats doc_tier;              ///< Summed over sessions.
  CacheStats query_tier;            ///< Summed over sessions.
  // Tier state at the end of each session, summed over sessions.
  double doc_entries = 0.0;
  double doc_bytes = 0.0;
  double store_facts = 0.0;
  double store_bytes = 0.0;
};

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

/// Saves the store, bumps the epoch, then checks that Save -> Load -> Save
/// gives identical bytes. Returns whether the check passed.
bool SaveAndBump(KbService* service, SearchEngine* search, const std::string& dir,
                 std::vector<double>* save_ms) {
  const std::string snapshot = dir + "/store.jsonl";
  const std::string resaved = dir + "/store-resaved.jsonl";
  Status saved;
  save_ms->push_back(TimeMs([&] { saved = service->fact_store()->Save(snapshot); }));
  search->BumpEpoch();
  FactStore reloaded;
  std::string a;
  std::string b;
  bool ok = saved.ok() && reloaded.Load(snapshot).ok() &&
            reloaded.Save(resaved).ok() && ReadFile(snapshot, &a) &&
            ReadFile(resaved, &b) && a == b;
  std::error_code ignored;
  std::filesystem::remove(snapshot, ignored);
  std::filesystem::remove(resaved, ignored);
  return ok;
}

Replay RunReplay(Fixture* fx, Workload workload, double seconds, uint64_t seed,
                 const std::string& dir, bool record_stats, References* refs) {
  const bool churn = workload == Workload::kServeChurn;
  Replay out;
  ZipfSampler sampler(fx->titles.size(), seed);
  std::mutex merge_mutex;
  std::mutex maintenance_mutex;
  CacheStats loose_before = fx->ds->repository->loose_cache_stats();

  while (out.wall_s < seconds) {
    const std::vector<uint32_t> stream = sampler.Session(kSessionQueries);
    KbService service(fx->engine.get(), fx->search.get(), ServeOptions(workload));
    std::atomic<size_t> next{0};
    std::vector<double> session_ms;

    auto client = [&] {
      std::vector<double> latency;
      std::vector<ServiceStats> stats;
      std::vector<double> save_ms;
      size_t attempted = 0;
      size_t failed = 0;
      double busy = 0.0;
      for (size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < stream.size();) {
        if (churn && i > 0 && i % kBumpEvery == 0) {
          std::lock_guard<std::mutex> lock(maintenance_mutex);
          ++attempted;
          if (!SaveAndBump(&service, fx->search.get(), dir, &save_ms)) ++failed;
        }
        WallTimer timer;
        KbService::QueryResult r = service.Answer(fx->titles[stream[i]]);
        const double sec = timer.ElapsedSeconds();
        busy += sec;
        latency.push_back(sec * 1e3);
        if (record_stats) stats.push_back(r.stats);
        ++attempted;
        if (!refs->Check(stream[i], r.kb.Serialize())) ++failed;
      }
      std::lock_guard<std::mutex> lock(merge_mutex);
      out.answers += latency.size();
      out.attempted += attempted;
      out.failed += failed;
      out.busy_s += busy;
      session_ms.insert(session_ms.end(), latency.begin(), latency.end());
      out.stats.insert(out.stats.end(), stats.begin(), stats.end());
      out.save_ms.insert(out.save_ms.end(), save_ms.begin(), save_ms.end());
    };

    WallTimer wall;
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) clients.emplace_back(client);
    for (std::thread& t : clients) t.join();
    const double session_s = wall.ElapsedSeconds();
    out.wall_s += session_s;
    out.reps.Add(session_ms.size(), session_s, session_ms);
    ++out.sessions;
    out.doc_tier += service.cache().stats();
    out.query_tier += service.query_cache().stats();
    out.doc_entries += static_cast<double>(service.cache().entry_count());
    out.doc_bytes += static_cast<double>(service.cache().ApproxBytesUsed());
    out.store_facts += static_cast<double>(service.fact_store()->fact_count());
    out.store_bytes += static_cast<double>(service.fact_store()->ApproxBytesUsed());
    if (record_stats && !churn) {
      // serve_zipf never saves on its own; time one snapshot per session.
      (void)SaveAndBump(&service, fx->search.get(), dir, &out.save_ms);
    }
  }
  out.loose = fx->ds->repository->loose_cache_stats() - loose_before;
  return out;
}

Measured MeasureServe(Fixture* fx, Workload workload, double seconds,
                      uint64_t seed, const std::string& dir) {
  Measured out;
  References refs;
  Replay replay = RunReplay(fx, workload, seconds, seed, dir, false, &refs);
  out.reps = replay.reps;
  out.ops = replay.answers;
  out.attempted = replay.attempted;
  out.failed = replay.failed;
  for (const auto& [query, bytes] : refs.all()) {
    OnTheFlyKb kb = fx->engine->MakeKb();
    if (!kb.Deserialize(bytes).ok()) out.correct = false;
    JudgeKb(*fx, kb, &out.precision);
  }
  return out;
}

Result TraceServe(Fixture* fx, const Args& args, double seconds) {
  Result res;
  const uint64_t seed = WorldSeed(args.seed, 0);
  // Untraced replay first, as the tracing-overhead baseline.
  double untraced_per_s = 0.0;
  {
    References refs;
    Replay plain = RunReplay(fx, args.workload, seconds, seed, args.out_dir, false, &refs);
    untraced_per_s = Median(plain.reps.per_s);
    res.attempted += plain.attempted;
    res.failed += plain.failed;
  }
  References refs;
  Replay replay = RunReplay(fx, args.workload, seconds, seed, args.out_dir, true, &refs);
  res.attempted += replay.attempted;
  res.failed += replay.failed;
  const double traced_per_s = Median(replay.reps.per_s);

  // Retrieval for every distinct query the replay answered, timed from the
  // benchmark exactly as the service's cold path issues it.
  const KbServiceOptions options = ServeOptions(args.workload);
  std::vector<double> retrieve_ms;
  double docs_per_query = 0.0;
  std::vector<const Document*> touched;
  std::unordered_set<const Document*> seen;
  std::vector<const std::string*> kbs;
  for (const auto& [query, bytes] : refs.all()) {
    const std::string& title = fx->titles[query];
    std::vector<const Document*> docs;
    retrieve_ms.push_back(TimeMs([&] {
      docs = fx->search->Retrieve(title, SearchEngine::Source::kWikipedia, options.wiki_k);
      for (const Document* d :
           fx->search->Retrieve(title, SearchEngine::Source::kNews, options.news_k)) {
        if (std::find(docs.begin(), docs.end(), d) == docs.end()) docs.push_back(d);
      }
    }));
    docs_per_query += static_cast<double>(docs.size());
    for (const Document* d : docs) {
      if (seen.insert(d).second) touched.push_back(d);
    }
    kbs.push_back(&bytes);
  }
  docs_per_query /= static_cast<double>(std::max<size_t>(1, kbs.size()));

  // The documents those queries extract, split layer by layer. The kb memo
  // is read over the replay itself, whose doc-tier misses are the documents
  // the service extracted.
  ComposedSplit split = RunComposed(*fx, touched);
  AddLayerMetrics(split, replay.loose, replay.doc_tier.misses, &res.metrics);
  AddCanonMetrics(*fx, kbs, &res.metrics);

  std::vector<double> process_ms;
  std::vector<double> merge_ms;
  std::vector<double> unattributed_ms;
  double total_s = 0.0;
  double attributed_s = 0.0;
  for (const ServiceStats& s : replay.stats) {
    if (!s.query_cache_hit) {
      process_ms.push_back(s.process_s * 1e3);
      merge_ms.push_back(s.canonicalize_s * 1e3);
    }
    const double attributed = s.retrieve_s + s.process_s + s.canonicalize_s;
    unattributed_ms.push_back((s.total_s - attributed) * 1e3);
    total_s += s.total_s;
    attributed_s += attributed;
  }

  // Store ingest of every distinct answer KB into a scratch store.
  std::vector<double> ingest_ms;
  {
    FactStore scratch;
    for (const std::string* b : kbs) {
      OnTheFlyKb kb = fx->engine->MakeKb();
      (void)kb.Deserialize(*b);
      ingest_ms.push_back(TimeMs([&] { scratch.IngestKb(kb, "q", 1); }));
    }
  }

  const double sessions = static_cast<double>(replay.sessions);
  res.metrics.push_back({"retrieval.retrieve_ms", Mean(retrieve_ms), "ms"});
  res.metrics.push_back({"retrieval.docs_per_query", docs_per_query, "count"});
  res.metrics.push_back({"service.doc_hit_rate", replay.doc_tier.HitRate(), "ratio"});
  res.metrics.push_back({"service.doc_evictions", static_cast<double>(replay.doc_tier.evictions) / sessions, "count"});
  res.metrics.push_back({"service.doc_bytes_per_entry", replay.doc_entries > 0 ? replay.doc_bytes / replay.doc_entries : 0.0, "bytes"});
  res.metrics.push_back({"service.process_ms", Mean(process_ms), "ms"});
  res.metrics.push_back({"service.merge_ms", Mean(merge_ms), "ms"});
  res.metrics.push_back({"service.unattributed_ms", Mean(unattributed_ms), "ms"});
  res.metrics.push_back({"store.query_hit_rate", replay.query_tier.HitRate(), "ratio"});
  res.metrics.push_back({"store.query_evictions", static_cast<double>(replay.query_tier.evictions) / sessions, "count"});
  res.metrics.push_back({"store.ingest_ms", Mean(ingest_ms), "ms"});
  res.metrics.push_back({"store.save_ms", Mean(replay.save_ms), "ms"});
  res.metrics.push_back({"store.facts", replay.store_facts / sessions, "count"});
  res.metrics.push_back({"store.resident_mb", replay.store_bytes / sessions / (1 << 20), "MB"});
  res.metrics.push_back({"util.pool_efficiency", replay.busy_s / (kThreads * replay.wall_s), "ratio"});
  res.metrics.push_back({"trace.overhead", untraced_per_s / traced_per_s - 1.0, "ratio"});
  res.metrics.push_back({"trace.layer_sum_ratio", total_s > 0 ? attributed_s / total_s : 0.0, "ratio"});
  res.notes = {{"untraced_answers_per_s", untraced_per_s, "1/s"},
               {"traced_answers_per_s", traced_per_s, "1/s"},
               {"sessions", sessions, "count"},
               {"composed_docs", static_cast<double>(split.counts.docs), "count"}};
  (void)split.log.WriteJsonLines(args.out_dir + "/spans-serve.jsonl");
  return res;
}

// ---------------------------------------------------------------------------

/// Runs the workload on each of the kWorlds worlds in turn and averages the
/// per-world medians; precision pools the facts judged in every world.
Result Measure(const Args& args) {
  const bool build = args.workload == Workload::kBuildCold;
  const double seconds = args.seconds / kWorlds;
  Result res;
  double setup_s = 0.0;
  std::vector<double> per_s;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  Precision precision;
  size_t ops = 0;
  size_t reps = 0;
  for (int w = 0; w < kWorlds; ++w) {
    const uint64_t seed = WorldSeed(args.seed, w);
    std::unique_ptr<Fixture> fx = SetUp(args.workload, seed);
    if (w == 0) setup_s = fx->setup_s;  // the only set-up in a fresh process
    Measured m = build ? MeasureBuildCold(*fx, seconds)
                       : MeasureServe(fx.get(), args.workload, seconds, seed, args.out_dir);
    per_s.push_back(Median(m.reps.per_s));
    p50_ms.push_back(Median(m.reps.p50_ms));
    p99_ms.push_back(Median(m.reps.p99_ms));
    precision.correct += m.precision.correct;
    precision.judged += m.precision.judged;
    ops += m.ops;
    reps += m.reps.per_s.size();
    res.attempted += m.attempted;
    res.failed += m.failed;
    res.correct = res.correct && m.correct;
  }
  res.metrics = {
      {"setup_s", setup_s, "s"},
      {"throughput_per_s", Mean(per_s), "1/s"},
      {"latency_p50_ms", Mean(p50_ms), "ms"},
      {"latency_p99_ms", Mean(p99_ms), "ms"},
      {"kb_precision", precision.Value(), "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
  const char* unit = build ? "documents" : "answers";
  res.notes = {{build ? "docs_per_s" : "answers_per_s", Mean(per_s), "1/s"},
               {build ? "doc_p50_ms" : "answer_p50_ms", Mean(p50_ms), "ms"},
               {build ? "doc_p99_ms" : "answer_p99_ms", Mean(p99_ms), "ms"},
               {unit, static_cast<double>(ops), "count"},
               {build ? "builds" : "sessions", static_cast<double>(reps), "count"},
               {"facts_judged", static_cast<double>(precision.judged), "count"}};
  for (int w = 0; w < kWorlds; ++w) {
    res.notes.push_back({"world" + std::to_string(w) + "_per_s", per_s[static_cast<size_t>(w)], "1/s"});
  }
  return res;
}

Result Trace(const Args& args) {
  std::unique_ptr<Fixture> fx = SetUp(args.workload, WorldSeed(args.seed, 0));
  if (args.workload == Workload::kBuildCold) return TraceBuildCold(*fx, args);
  return TraceServe(fx.get(), args, args.seconds / kWorlds);
}

void PrintJsonNumber(double v) {
  if (std::isfinite(v)) {
    std::printf("%.17g", v);
  } else {
    std::printf("null");
  }
}

void Print(const Result& res) {
  for (const Metric& m : res.metrics) {
    std::printf("%-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  for (const Metric& m : res.notes) {
    std::printf("  (%s %.6f %s)\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  (failed_frac %.6f ratio)\n",
              res.attempted == 0 ? 1.0 : static_cast<double>(res.failed) / res.attempted);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              res.correct && res.failed == 0 && res.attempted > 0 ? "true" : "false",
              res.attempted, res.failed);
  for (size_t i = 0; i < res.metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", res.metrics[i].name.c_str());
    PrintJsonNumber(res.metrics[i].value);
    std::printf(", \"unit\": \"%s\"}", res.metrics[i].unit);
  }
  std::printf("}}\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      args->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: qkbfly_perfbench --workload NAME --seed N "
                         "--seconds S --trace 0|1 --out-dir DIR [--setup-only]\n");
    return 2;
  }
  if (args.setup_only) {
    std::unique_ptr<Fixture> fx = SetUp(args.workload, WorldSeed(args.seed, 0));
    std::printf("{\"setup_s\": %.17g}\n", fx->setup_s);
    return 0;
  }
  Print(args.trace ? Trace(args) : Measure(args));
  return 0;
}

}  // namespace
}  // namespace qkbfly::perfbench

int main(int argc, char** argv) { return qkbfly::perfbench::Main(argc, argv); }
