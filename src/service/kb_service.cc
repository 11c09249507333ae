#include "service/kb_service.h"

#include <algorithm>
#include <future>
#include <utility>

#include "store/qa_pair_index.h"
#include "util/logging.h"
#include "util/thread_pool.h"
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
      query_cache_(options.query_cache),
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
  answer_seconds_ = registry.GetHistogram("service_answer_seconds",
                                          "End-to-end Answer() latency");
  retrieve_seconds_ = registry.GetHistogram(
      "service_retrieve_seconds", "Per-query search-engine retrieval time");
  queries_baseline_ = queries_total_->Value();
  latency_baseline_ = answer_seconds_->Snapshot();
}

KbService::~KbService() = default;

std::shared_ptr<const DocumentFacts> KbService::FetchOrCompute(
    const Document& doc, CacheStats* tally, obs::TraceContext trace) {
  obs::ScopedSpan span(trace, "fetch_or_compute");
  span.AddAttribute("doc_id", std::string_view(doc.id));
  bool was_hit = false;
  obs::TraceContext compute_trace = span.context();
  auto result = cache_.FetchOrCompute(
      memo::JoinKey({doc.id, fingerprint_}),
      [this, &doc, compute_trace] {
        // Stages 1-2, then the query-independent half of stage 3; the
        // DocumentResult is dropped here, only its facts are cached.
        DocumentResult processed = engine_->ProcessDocument(doc, compute_trace);
        obs::ScopedSpan extract(compute_trace, "extract");
        DocumentFacts facts = engine_->canonicalizer().Extract(
            processed.graph, processed.densified, processed.annotated);
        extract.AddAttribute("facts", static_cast<int64_t>(facts.facts.size()));
        extract.AddAttribute("clusters",
                             static_cast<int64_t>(facts.clusters.size()));
        return facts;
      },
      &was_hit);
  span.AddAttribute("cache_hit", was_hit);
  if (was_hit) {
    ++tally->hits;
  } else {
    ++tally->misses;
  }
  return result;
}

OnTheFlyKb KbService::BuildKb(const std::vector<const Document*>& docs,
                              ServiceStats* stats, obs::TraceContext trace) {
  WallTimer total;
  ServiceStats local;
  local.documents = docs.size();

  WallTimer stage;
  std::vector<std::shared_ptr<const DocumentFacts>> results(docs.size());
  if (pool_ != nullptr && docs.size() > 1) {
    // The per-document tallies are written by pool workers; give each task
    // its own counter and merge after the barrier. The trace context rides
    // into each task by value, so every fetch_or_compute span parents to the
    // query span regardless of which worker runs it.
    std::vector<CacheStats> tallies(docs.size());
    std::vector<std::future<std::shared_ptr<const DocumentFacts>>> futures;
    futures.reserve(docs.size());
    for (size_t i = 0; i < docs.size(); ++i) {
      const Document* doc = docs[i];
      CacheStats* tally = &tallies[i];
      futures.push_back(pool_->Submit([this, doc, tally, trace] {
        return FetchOrCompute(*doc, tally, trace);
      }));
    }
    for (size_t i = 0; i < futures.size(); ++i) results[i] = futures[i].get();
    for (const CacheStats& t : tallies) local.cache += t;
  } else {
    for (size_t i = 0; i < docs.size(); ++i) {
      results[i] = FetchOrCompute(*docs[i], &local.cache, trace);
    }
  }
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

void KbService::AnswerCold(const std::string& query, QueryResult* out,
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
  out->stats.retrieve_s = stage.ElapsedSeconds();
  retrieve_seconds_->Observe(out->stats.retrieve_s);

  out->kb = BuildKb(docs, &out->stats, trace);

  // Rank facts by confidence (stable, so ties keep canonicalization order)
  // and render the top ones as the human-readable answer.
  std::vector<const Fact*> ranked;
  ranked.reserve(out->kb.facts().size());
  for (const Fact& f : out->kb.facts()) ranked.push_back(&f);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Fact* a, const Fact* b) {
                     return a->confidence > b->confidence;
                   });
  if (ranked.size() > options_.max_answers) ranked.resize(options_.max_answers);
  for (const Fact* f : ranked) {
    out->answers.push_back(out->kb.FactToString(*f));
  }
}

CorpusEpoch KbService::CurrentEpoch() const {
  return search_ != nullptr ? search_->epoch()
                            : engine_->config().corpus_epoch;
}

void KbService::SyncEpoch(CorpusEpoch epoch) {
  // Tier by tier; each tier takes its shard locks one at a time and never
  // nests them. The query tier's keys embed the epoch, so its EvictAll is
  // memory reclamation; the doc tier's keys do not, so its EvictAll is the
  // correctness-critical half of a corpus bump.
  query_cache_.EvictAll(epoch);
  cache_.EvictAll(epoch);
  store_->SetEpoch(epoch);
}

KbService::QueryResult KbService::Answer(const std::string& query) {
  WallTimer total;
  QueryResult out{engine_->MakeKb(), {}, {}};

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
  std::string normalized = QaPairIndex::NormalizeQuestion(query);

  // `built` flags that *this thread* ran the cold pipeline, in which case
  // out.kb already holds the directly-built KB (the byte-identity anchor).
  // Waiters, hits, and store-served answers rebuild from the cached bytes
  // instead; the Serialize/Deserialize round-trip contract makes the two
  // paths byte-identical.
  bool built = false;
  bool was_hit = false;
  auto cached = query_cache_.FetchOrCompute(
      QueryKey(normalized, epoch, fingerprint_),
      [&]() -> CachedAnswer {
        CachedAnswer answer;
        if (options_.serve_from_store) {
          std::shared_ptr<const QaPair> pair = store_->FindQaPair(
              normalized, epoch, fingerprint_, options_.match_paraphrases,
              query_trace);
          if (pair != nullptr) {
            answer.kb_bytes = pair->kb_bytes;
            answer.answers = pair->answers;
            answer.documents = pair->documents;
            answer.from_store = true;
            return answer;
          }
        }
        AnswerCold(query, &out, query_trace);
        built = true;
        answer.kb_bytes = out.kb.Serialize();
        answer.answers = out.answers;
        answer.documents = out.stats.documents;
        store_->IngestKb(out.kb, query, epoch, query_trace);
        QaPair pair;
        pair.question = normalized;
        pair.fingerprint = fingerprint_;
        pair.epoch = epoch;
        pair.documents = answer.documents;
        pair.answers = answer.answers;
        pair.kb_bytes = answer.kb_bytes;
        store_->qa_pairs().Record(std::move(pair));
        return answer;
      },
      &was_hit);
  out.stats.query_cache_hit = was_hit;
  out.stats.served_from_store = cached->from_store;
  if (was_hit) {
    out.stats.query_cache.hits = 1;
  } else {
    out.stats.query_cache.misses = 1;
  }
  if (!built) {
    out.answers = cached->answers;
    out.stats.documents = cached->documents;
    Status status = out.kb.Deserialize(cached->kb_bytes);
    QKB_CHECK(status.ok());
  }

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

KbService::Metrics KbService::metrics() const {
  Metrics m;
  m.queries = queries_total_->Value() - queries_baseline_;
  m.latency = answer_seconds_->Snapshot();
  m.latency.SubtractPrefix(latency_baseline_);
  m.cache = cache_.stats();
  m.query_cache = query_cache_.stats();
  return m;
}

}  // namespace qkbfly
