#include "service/kb_service.h"

#include <algorithm>
#include <utility>

#include "store/qa_pair_index.h"
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
  store_qa_rejected_total_ = registry.GetCounter(
      "store_qa_rejected_total",
      "Stored QA pairs whose KB bytes failed to deserialize (answered cold)");
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

void KbService::AnswerCold(const std::string& query,
                           std::shared_ptr<const OnTheFlyKb>* kb,
                           std::vector<std::string>* answers,
                           ServiceStats* stats, obs::TraceContext trace) {
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

  // Built once, then shared read-only by the query tier and the QA pair.
  auto built = std::make_shared<OnTheFlyKb>(BuildKb(docs, stats, trace));
  built->ShrinkToFit();
  *kb = built;

  // Rank facts by confidence (stable, so ties keep canonicalization order)
  // and render the top ones as the human-readable answer.
  obs::ScopedSpan span(trace, "render");
  std::vector<const Fact*> ranked;
  ranked.reserve(built->facts().size());
  for (const Fact& f : built->facts()) ranked.push_back(&f);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const Fact* a, const Fact* b) {
                     return a->confidence > b->confidence;
                   });
  if (ranked.size() > kMaxAnswers) ranked.resize(kMaxAnswers);
  for (const Fact* f : ranked) answers->push_back(built->FactToString(*f));
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
  std::string normalized = QaPairIndex::NormalizeQuestion(query);

  // The compute function runs on a miss only; hits and waiters share the
  // entry it publishes, KB included. Only a KB that exists in full — built
  // here, shared from an in-process QA pair, or deserialized from a loaded
  // one — enters the query tier.
  bool was_hit = false;
  auto cached = query_cache_.FetchOrCompute(
      QueryKey(normalized, epoch, fingerprint_),
      [&]() -> CachedAnswer {
        CachedAnswer answer;
        if (options_.fact_store != nullptr) {
          std::shared_ptr<const QaPair> pair = store_->FindQaPair(
              normalized, epoch, fingerprint_, query_trace);
          if (pair != nullptr) {
            answer.kb = pair->kb;
            if (answer.kb == nullptr) {
              obs::ScopedSpan span(query_trace, "deserialize");
              auto loaded = std::make_shared<OnTheFlyKb>(engine_->MakeKb());
              if (loaded->Deserialize(pair->kb_bytes).ok()) {
                loaded->ShrinkToFit();
                answer.kb = std::move(loaded);
              }
            }
            if (answer.kb != nullptr) {
              answer.answers = pair->answers;
              answer.documents = pair->documents;
              answer.from_store = true;
              return answer;
            }
            store_qa_rejected_total_->Increment();
          }
        }
        AnswerCold(query, &answer.kb, &answer.answers, &stats, query_trace);
        answer.documents = stats.documents;
        store_->IngestKb(*answer.kb, query, epoch, query_trace);
        obs::ScopedSpan span(query_trace, "qa_record");
        QaPair pair;
        pair.question = normalized;
        pair.fingerprint = fingerprint_;
        pair.epoch = epoch;
        pair.documents = answer.documents;
        pair.answers = answer.answers;
        pair.kb = answer.kb;
        store_->qa_pairs().Record(std::move(pair));
        return answer;
      },
      &was_hit);
  stats.query_cache_hit = was_hit;
  stats.served_from_store = cached->from_store;
  if (was_hit) {
    stats.query_cache.hits = 1;
  } else {
    stats.query_cache.misses = 1;
  }
  stats.documents = cached->documents;
  QueryResult out{cached->kb, *cached->kb, cached->answers, stats};

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
