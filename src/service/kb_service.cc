#include "service/kb_service.h"

#include <algorithm>
#include <utility>

#include "util/timer.h"

namespace qkbfly {

memo::Instruments memo::Traits<DocumentFacts>::Bind() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  Instruments m;
  m.hits = registry.GetCounter("doc_cache_hits_total",
                               "DocumentResultCache lookups served without "
                               "computing (ready or joined in-flight)");
  m.misses = registry.GetCounter("doc_cache_misses_total",
                                 "DocumentResultCache lookups that ran the "
                                 "compute function");
  m.evictions = registry.GetCounter("doc_cache_evictions_total",
                                    "DocumentResultCache entries evicted by "
                                    "the byte budget");
  m.resident_bytes = registry.GetGauge("doc_cache_resident_bytes",
                                       "Ready DocumentFacts bytes resident");
  m.resident_entries = registry.GetGauge(
      "doc_cache_resident_entries", "Ready DocumentFacts entries resident");
  return m;
}

KbService::KbService(const QkbflyEngine* engine, const SearchEngine* search,
                     KbServiceOptions options)
    : engine_(engine), search_(search), options_(options),
      fingerprint_(engine->config().Fingerprint()), cache_(options.cache),
      trace_sink_(options.keep_slowest_traces) {
  if (options_.fact_store != nullptr) {
    store_ = options_.fact_store;
  } else {
    owned_store_ = std::make_unique<FactStore>();
    store_ = owned_store_.get();
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  queries_total_ = registry.GetCounter("service_queries_total",
                                       "Answer() calls served");
  store_qa_rejected_total_ = registry.GetCounter(
      "store_qa_rejected_total",
      "Loaded QA pairs whose KB bytes failed to deserialize (answered cold)");
  answer_seconds_ = registry.GetHistogram("service_answer_seconds",
                                          "End-to-end Answer() latency");
  retrieve_seconds_ = registry.GetHistogram(
      "service_retrieve_seconds", "Per-query search-engine retrieval time");
}

KbService::~KbService() = default;

KbService::Fetched KbService::FetchOrCompute(const Document& doc,
                                             obs::TraceContext trace) {
  obs::ScopedSpan span(trace, "fetch_or_compute");
  span.AddAttribute("doc_id", std::string_view(doc.id));
  Fetched out;
  const obs::TraceContext compute_trace = span.context();
  out.facts = cache_.FetchOrCompute(
      memo::JoinKey({doc.id, fingerprint_}),
      [this, &doc, compute_trace] {
        return engine_->ExtractDocument(doc, compute_trace);
      },
      &out.hit);
  span.AddAttribute("cache_hit", out.hit);
  return out;
}

OnTheFlyKb KbService::BuildKb(const std::vector<const Document*>& docs,
                              ServiceStats* stats, obs::TraceContext trace) {
  WallTimer total;
  ServiceStats local;
  local.documents = docs.size();

  // Fetch every document first (on the pool when there is one), tallying
  // hits on this thread. The trace context rides into each task by value,
  // so every fetch_or_compute span parents to the query span regardless of
  // which worker runs it.
  WallTimer stage;
  std::vector<std::shared_ptr<const DocumentFacts>> results(docs.size());
  ForEachOrdered(
      pool_.get(), docs.size(),
      [&](size_t i) { return FetchOrCompute(*docs[i], trace); },
      [&](size_t i, Fetched fetched) {
        ++(fetched.hit ? local.cache.hits : local.cache.misses);
        results[i] = std::move(fetched.facts);
      });
  local.process_s = stage.ElapsedSeconds();

  // Merge into the fresh per-query KB in input order — the same merge order
  // as QkbflyEngine::BuildKb, so cached and uncached builds agree. Each
  // document's emerging ids are local until Merge remaps them, so one cached
  // entry serves any document order.
  stage.Restart();
  OnTheFlyKb kb = engine_->MakeKb();
  {
    obs::ScopedSpan span(trace, "merge");
    span.AddAttribute("documents", static_cast<int64_t>(results.size()));
    for (const auto& facts : results) Canonicalizer::Merge(&kb, *facts);
  }
  local.canonicalize_s = stage.ElapsedSeconds();

  local.total_s = total.ElapsedSeconds();
  if (stats != nullptr) {
    // Preserve retrieval timing filled in by Answer().
    local.retrieve_s = stats->retrieve_s;
    local.total_s += stats->retrieve_s;
    *stats = local;
  }
  return kb;
}

QaPair KbService::AnswerCold(const std::string& query, std::string normalized,
                             CorpusEpoch epoch, ServiceStats* stats,
                             obs::TraceContext trace) {
  WallTimer stage;
  std::vector<const Document*> docs;
  {
    obs::ScopedSpan span(trace, "retrieve");
    docs = search_->Retrieve(query, SearchEngine::Source::kWikipedia,
                             options_.wiki_k);
    for (const Document* d : search_->Retrieve(
             query, SearchEngine::Source::kNews, options_.news_k)) {
      if (std::find(docs.begin(), docs.end(), d) == docs.end()) {
        docs.push_back(d);
      }
    }
    span.AddAttribute("documents", static_cast<int64_t>(docs.size()));
  }
  stats->retrieve_s = stage.ElapsedSeconds();
  retrieve_seconds_->Observe(stats->retrieve_s);

  // Built once, then shared read-only by every hit on the QA pair.
  auto built = std::make_shared<OnTheFlyKb>(BuildKb(docs, stats, trace));
  built->ShrinkToFit();

  QaPair pair;
  pair.question = std::move(normalized);
  pair.fingerprint = fingerprint_;
  pair.epoch = epoch;
  pair.documents = stats->documents;
  {
    // Rank facts by confidence (stable, so ties keep canonicalization
    // order) and render the top ones as the human-readable answer.
    obs::ScopedSpan span(trace, "render");
    std::vector<const Fact*> ranked;
    ranked.reserve(built->facts().size());
    for (const Fact& f : built->facts()) ranked.push_back(&f);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const Fact* a, const Fact* b) {
                       return a->confidence > b->confidence;
                     });
    if (ranked.size() > kMaxAnswers) ranked.resize(kMaxAnswers);
    for (const Fact* f : ranked) {
      pair.answers.push_back(built->FactToString(*f));
    }
  }
  store_->IngestKb(*built, query, epoch, trace);
  pair.kb = std::move(built);
  return pair;
}

CorpusEpoch KbService::CurrentEpoch() const {
  return search_->epoch();
}

void KbService::SyncEpoch(CorpusEpoch epoch) {
  // Tier by tier; each tier takes its shard locks one at a time and never
  // nests them. The doc tier's keys carry no epoch, so its EvictAll is the
  // correctness-critical half of a corpus bump; the store's SetEpoch empties
  // the query tier, whose keys embed the epoch, to reclaim memory.
  cache_.EvictAll(epoch);
  store_->SetEpoch(epoch);
}

KbService::QueryResult KbService::Answer(const std::string& query) {
  WallTimer total;
  ServiceStats stats;

  // Span capture is per-query opt-in: without a sink no Trace is allocated
  // and the pipeline's instrumentation points reduce to null checks.
  std::shared_ptr<obs::Trace> trace;
  obs::TraceContext query_trace;
  if (options_.keep_slowest_traces > 0) {
    trace = std::make_shared<obs::Trace>("answer");
    query_trace = {trace.get(), trace->root()};
    trace->AddAttribute(trace->root(), "query", std::string_view(query));
  }

  CorpusEpoch epoch = CurrentEpoch();
  SyncEpoch(epoch);
  std::string normalized = NormalizeQuestion(query);
  const std::string key = QueryKey(normalized, epoch, fingerprint_);

  // The compute function runs on a miss only; hits and waiters share the
  // pair it publishes, KB included.
  QueryKbCache& tier = store_->answers();
  bool was_hit = false;
  std::shared_ptr<const QaPair> pair = tier.FetchOrCompute(
      key,
      [&] {
        return AnswerCold(query, std::move(normalized), epoch, &stats,
                          query_trace);
      },
      &was_hit);
  if (pair->kb == nullptr) {
    // A pair FactStore::Load read holds its KB as bytes: this first hit
    // deserializes them (or, if they are corrupt, answers cold) and the
    // completed pair replaces it in the tier. Concurrent first hits each
    // deserialize the same bytes; the last Insert stays.
    QaPair completed;
    {
      obs::ScopedSpan span(query_trace, "deserialize");
      auto loaded = std::make_shared<OnTheFlyKb>(engine_->MakeKb());
      if (loaded->Deserialize(pair->kb_bytes).ok()) {
        loaded->ShrinkToFit();
        completed.kb = std::move(loaded);
      }
    }
    if (completed.kb != nullptr) {
      completed.question = pair->question;
      completed.fingerprint = pair->fingerprint;
      completed.epoch = pair->epoch;
      completed.documents = pair->documents;
      completed.answers = pair->answers;
      stats.served_from_store = true;
    } else {
      store_qa_rejected_total_->Increment();
      completed = AnswerCold(query, pair->question, epoch, &stats, query_trace);
    }
    pair = tier.Insert(key, std::move(completed));
    was_hit = false;
  }
  stats.query_cache_hit = was_hit;
  if (was_hit) {
    stats.query_cache.hits = 1;
  } else {
    stats.query_cache.misses = 1;
  }
  stats.documents = pair->documents;
  const QaPair& answered = *pair;
  QueryResult out{std::move(pair), *answered.kb, answered.answers, stats};

  out.stats.total_s = total.ElapsedSeconds();
  queries_total_->Increment();
  answer_seconds_->Observe(out.stats.total_s);

  if (trace != nullptr) {
    trace->AddAttribute(trace->root(), "cache_hits",
                        static_cast<int64_t>(out.stats.cache.hits));
    trace->AddAttribute(trace->root(), "cache_misses",
                        static_cast<int64_t>(out.stats.cache.misses));
    trace->AddAttribute(trace->root(), "query_cache_hit",
                        out.stats.query_cache_hit);
    trace->AddAttribute(trace->root(), "served_from_store",
                        out.stats.served_from_store);
    trace->Finish();
    trace_sink_.Offer(std::move(trace));
  }
  return out;
}

}  // namespace qkbfly
