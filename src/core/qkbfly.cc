#include "core/qkbfly.h"

#include <cstdio>
#include <utility>

#include "canon/kb_invariants.h"
#include "densify/ilp_densifier.h"
#include "densify/pipeline_densifier.h"
#include "parser/router.h"
#include "util/invariants.h"
#include "util/timer.h"

namespace qkbfly {

std::string EngineConfig::Fingerprint() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "mode=%d;a1=%.17g;a2=%.17g;a3=%.17g;a4=%.17g;"
      "conf=%.17g;emerge=%.17g;triples=%d;"
      "pwin=%d;coref=%d;maxcand=%d;"
      "pmode=%d;pthresh=%.17g",
      static_cast<int>(mode), params.alpha1, params.alpha2, params.alpha3,
      params.alpha4, canon.confidence_threshold, canon.emerging_threshold,
      canon.triples_only ? 1 : 0, graph.pronoun_window,
      graph.pronoun_coreference ? 1 : 0, graph.max_candidates,
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
  if (config_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
  }

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
      "Per-document canonical fact extraction (Canonicalizer::Extract) time");
  densify_contributions_total_ = registry.GetCounter(
      "densify_contributions_total",
      "Edge contributions evaluated by the greedy densify loop");
  densify_edges_removed_total_ = registry.GetCounter(
      "densify_edges_removed_total", "Edges removed by densification");
}

DocumentResult QkbflyEngine::ProcessDocument(const Document& doc,
                                             obs::TraceContext trace) const {
  obs::ScopedSpan doc_span(trace, "process_document");
  doc_span.AddAttribute("doc_id", std::string_view(doc.id));

  // One clock read per stage: each stage's time is the delta since the
  // previous read, and the last read is the document's total.
  WallTimer timer;
  double stage_start = 0.0;
  auto observe = [&](obs::Histogram* histogram) {
    double now = timer.ElapsedSeconds();
    histogram->Observe(now - stage_start);
    stage_start = now;
  };

  DocumentResult result;
  {
    obs::ScopedSpan span(doc_span.context(), "annotate");
    result.annotated = nlp_.Annotate(doc.id, doc.title, doc.text);
  }
  observe(annotate_seconds_);

  {
    obs::ScopedSpan span(doc_span.context(), "graph_build");
    span.AddAttribute("parse", std::string_view(builder_->parser().Name()));
    result.graph = builder_->Build(result.annotated);
    span.AddAttribute("nodes", static_cast<int64_t>(result.graph.node_count()));
    span.AddAttribute("edges", static_cast<int64_t>(result.graph.edge_count()));
  }
  observe(graph_build_seconds_);

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
  observe(densify_seconds_);

  densify_contributions_total_->Increment(
      static_cast<uint64_t>(result.densified.contributions_evaluated));
  densify_edges_removed_total_->Increment(
      static_cast<uint64_t>(result.densified.edges_removed));
  documents_total_->Increment();
  result.seconds = stage_start;
  return result;
}

DocumentFacts QkbflyEngine::ExtractDocument(const Document& doc,
                                            obs::TraceContext trace,
                                            DocumentResult* result) const {
  DocumentResult processed = ProcessDocument(doc, trace);
  obs::ScopedSpan span(trace, "extract");
  WallTimer timer;
  DocumentFacts facts = canonicalizer_.Extract(
      processed.graph, processed.densified, processed.annotated);
  const double seconds = timer.ElapsedSeconds();
  canonicalize_seconds_->Observe(seconds);
  span.AddAttribute("facts", static_cast<int64_t>(facts.facts.size()));
  span.AddAttribute("clusters", static_cast<int64_t>(facts.clusters.size()));
  if (result != nullptr) {
    processed.seconds += seconds;
    *result = std::move(processed);
  }
  return facts;
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

  // Only Merge, which appends to the shared KB, runs on this thread, in
  // input order, so every thread count builds the same KB. The trace context
  // rides into every task by value, never thread-local.
  const obs::TraceContext doc_trace = build_span.context();
  ForEachOrdered(
      pool_.get(), docs.size(),
      [&](size_t i) {
        std::pair<DocumentFacts, DocumentResult> out;
        DocumentResult* result = doc_results != nullptr ? &out.second : nullptr;
        out.first = ExtractDocument(*docs[i], doc_trace, result);
        return out;
      },
      [&](size_t i, std::pair<DocumentFacts, DocumentResult> out) {
        obs::ScopedSpan span(doc_trace, "merge");
        span.AddAttribute("doc_id", std::string_view(docs[i]->id));
        WallTimer timer;
        Canonicalizer::Merge(&kb, std::move(out.first));
        if (doc_results != nullptr) {
          out.second.seconds += timer.ElapsedSeconds();
          doc_results->push_back(std::move(out.second));
        }
      });
#if defined(QKBFLY_CHECK_INVARIANTS)
  // AddFact merges duplicates in place: facts keep first-occurrence order.
  std::vector<std::string> doc_order;
  for (const Document* doc : docs) doc_order.push_back(doc->id);
  QKBFLY_INVARIANT(CheckKbMergeOrder(kb, doc_order), "BuildKb");
#endif
  return kb;
}

}  // namespace qkbfly
