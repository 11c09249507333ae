#include "core/qkbfly.h"

#include <cstdio>
#include <future>
#include <utility>

#include "canon/kb_invariants.h"
#include "densify/ilp_densifier.h"
#include "densify/pipeline_densifier.h"
#include "parser/router.h"
#include "util/invariants.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace qkbfly {

std::string EngineConfig::Fingerprint() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "mode=%d;a1=%.17g;a2=%.17g;a3=%.17g;a4=%.17g;"
      "conf=%.17g;emerge=%.17g;triples=%d;"
      "pwin=%d;poss=%d;coref=%d;loose=%d;maxcand=%d;"
      "pmode=%d;pthresh=%.17g",
      static_cast<int>(mode), params.alpha1, params.alpha2, params.alpha3,
      params.alpha4, canon.confidence_threshold, canon.emerging_threshold,
      canon.triples_only ? 1 : 0, graph.pronoun_window,
      graph.possessive_relations ? 1 : 0, graph.pronoun_coreference ? 1 : 0,
      graph.loose_candidates ? 1 : 0, graph.max_candidates,
      static_cast<int>(parser_mode), parser_complexity_threshold);
  return buf;
}

const char* InferenceModeName(InferenceMode mode) {
  switch (mode) {
    case InferenceMode::kJoint: return "QKBfly";
    case InferenceMode::kPipeline: return "QKBfly-pipeline";
    case InferenceMode::kNounOnly: return "QKBfly-noun";
    case InferenceMode::kIlp: return "QKBfly-ilp";
  }
  return "?";
}

QkbflyEngine::QkbflyEngine(const EntityRepository* repository,
                           const PatternRepository* patterns,
                           const BackgroundStats* stats, EngineConfig config)
    : repository_(repository), patterns_(patterns), stats_(stats),
      config_(config), nlp_(repository),
      canonicalizer_(repository, patterns, config.canon) {
  GraphBuilder::Options graph_options = config_.graph;
  if (config_.mode == InferenceMode::kNounOnly) {
    graph_options.pronoun_coreference = false;
  }
  DensifyParams params = config_.params;
  if (config_.mode == InferenceMode::kPipeline) {
    params.alpha4 = 0.0;  // the pipeline variant omits the type signatures
  }
  config_.params = params;
  builder_ = std::make_unique<GraphBuilder>(
      repository,
      MakeParser(config_.parser_mode, config_.parser_complexity_threshold),
      graph_options);

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  documents_total_ = registry.GetCounter(
      "pipeline_documents_total", "Documents run through ProcessDocument");
  annotate_seconds_ = registry.GetHistogram(
      "pipeline_annotate_seconds", "Per-document linguistic annotation time");
  graph_build_seconds_ = registry.GetHistogram(
      "pipeline_graph_build_seconds",
      "Per-document semantic graph construction time");
  densify_seconds_ = registry.GetHistogram(
      "pipeline_densify_seconds",
      "Per-document joint disambiguation (densify) time");
  canonicalize_seconds_ = registry.GetHistogram(
      "pipeline_canonicalize_seconds",
      "Per-document canonicalization (KB merge) time");
}

void StageTimingSummary::Add(const StageTimings& timings) {
  annotate.Add(timings.annotate_s);
  graph.Add(timings.graph_s);
  densify.Add(timings.densify_s);
  canonicalize.Add(timings.canonicalize_s);
}

std::string StageTimingSummary::Report() const {
  std::string out;
  char line[128];
  auto row = [&](const char* name, const TimingStats& stats) {
    std::snprintf(line, sizeof(line),
                  "  %-12s mean %9.3f ms   p95 %9.3f ms\n", name,
                  stats.Mean() * 1e3, stats.Percentile(0.95) * 1e3);
    out += line;
  };
  row("annotate", annotate);
  row("graph-build", graph);
  row("densify", densify);
  row("canonicalize", canonicalize);
  return out;
}

DocumentResult QkbflyEngine::ProcessDocument(const Document& doc,
                                             obs::TraceContext trace) const {
  obs::ScopedSpan doc_span(trace, "process_document");
  doc_span.AddAttribute("doc_id", std::string_view(doc.id));

  WallTimer timer;
  WallTimer stage;
  DocumentResult result;
  {
    obs::ScopedSpan span(doc_span.context(), "annotate");
    result.annotated = nlp_.Annotate(doc.id, doc.title, doc.text);
  }
  result.timings.annotate_s = stage.ElapsedSeconds();
  annotate_seconds_->Observe(result.timings.annotate_s);

  stage.Restart();
  {
    obs::ScopedSpan span(doc_span.context(), "graph_build");
    span.AddAttribute("parse", std::string_view(builder_->parser().Name()));
    result.graph = builder_->Build(result.annotated);
    span.AddAttribute("nodes", static_cast<int64_t>(result.graph.node_count()));
    span.AddAttribute("edges", static_cast<int64_t>(result.graph.edge_count()));
  }
  result.timings.graph_s = stage.ElapsedSeconds();
  graph_build_seconds_->Observe(result.timings.graph_s);

  stage.Restart();
  {
    obs::ScopedSpan span(doc_span.context(), "densify");
    switch (config_.mode) {
      case InferenceMode::kJoint:
      case InferenceMode::kNounOnly: {
        GreedyDensifier densifier(stats_, repository_, config_.params);
        result.densified = densifier.Densify(&result.graph, result.annotated,
                                             span.context());
        break;
      }
      case InferenceMode::kPipeline: {
        PipelineDensifier densifier(stats_, repository_, config_.params);
        result.densified = densifier.Densify(&result.graph, result.annotated);
        break;
      }
      case InferenceMode::kIlp: {
        IlpDensifier densifier(stats_, repository_, config_.params);
        result.densified = densifier.Densify(&result.graph, result.annotated);
        break;
      }
    }
    span.AddAttribute("assignments",
                      static_cast<int64_t>(result.densified.assignments.size()));
  }
  result.timings.densify_s = stage.ElapsedSeconds();
  densify_seconds_->Observe(result.timings.densify_s);

  documents_total_->Increment();
  result.seconds = timer.ElapsedSeconds();
  return result;
}

void QkbflyEngine::PopulateKb(OnTheFlyKb* kb, const DocumentResult& result) const {
  Canonicalizer::Merge(kb, canonicalizer_.Extract(result.graph,
                                                  result.densified,
                                                  result.annotated));
}

OnTheFlyKb QkbflyEngine::BuildKb(const std::vector<Document>& docs,
                                 std::vector<DocumentResult>* doc_results,
                                 obs::TraceContext trace) const {
  std::vector<const Document*> pointers;
  pointers.reserve(docs.size());
  for (const Document& doc : docs) pointers.push_back(&doc);
  return BuildKb(pointers, doc_results, trace);
}

OnTheFlyKb QkbflyEngine::BuildKb(const std::vector<const Document*>& docs,
                                 std::vector<DocumentResult>* doc_results,
                                 obs::TraceContext trace) const {
  obs::ScopedSpan build_span(trace, "build_kb");
  build_span.AddAttribute("documents", static_cast<int64_t>(docs.size()));
  OnTheFlyKb kb(repository_, patterns_);
  if (doc_results != nullptr) doc_results->reserve(docs.size());
#if defined(QKBFLY_CHECK_INVARIANTS)
  std::vector<std::string> doc_order;
  doc_order.reserve(docs.size());
  for (const Document* doc : docs) doc_order.push_back(doc->id);
#endif

  // Canonicalization appends to the shared KB, so it always runs on this
  // thread, one document at a time, in input order — the parallel path is
  // therefore bit-identical to the serial one.
  auto merge = [&](DocumentResult result) {
    obs::ScopedSpan span(build_span.context(), "canonicalize");
    span.AddAttribute("doc_id", std::string_view(result.annotated.id));
    WallTimer timer;
    PopulateKb(&kb, result);
    result.timings.canonicalize_s = timer.ElapsedSeconds();
    canonicalize_seconds_->Observe(result.timings.canonicalize_s);
    result.seconds += result.timings.canonicalize_s;
    if (doc_results != nullptr) doc_results->push_back(std::move(result));
  };

  int threads = config_.num_threads;
  if (threads > static_cast<int>(docs.size())) {
    threads = static_cast<int>(docs.size());
  }
  if (threads <= 1) {
    for (const Document* doc : docs) {
      merge(ProcessDocument(*doc, build_span.context()));
    }
    // AddFact merges duplicates in place, so the serial and parallel paths
    // both leave facts in first-occurrence input order.
    QKBFLY_INVARIANT(CheckKbMergeOrder(kb, doc_order), "BuildKb (serial)");
    return kb;
  }

  ThreadPool pool(threads);
  std::vector<std::future<DocumentResult>> futures;
  futures.reserve(docs.size());
  // The trace context is captured by value (never thread-local), so every
  // worker's process_document span parents to this call's build_kb span.
  obs::TraceContext doc_trace = build_span.context();
  for (const Document* doc : docs) {
    futures.push_back(pool.Submit(
        [this, doc, doc_trace] { return ProcessDocument(*doc, doc_trace); }));
  }
  // get() in submission order; a task exception rethrows here, exactly as it
  // would have surfaced from the serial loop.
  for (std::future<DocumentResult>& future : futures) merge(future.get());
  QKBFLY_INVARIANT(CheckKbMergeOrder(kb, doc_order), "BuildKb (parallel)");
  return kb;
}

}  // namespace qkbfly
