// QkbflyEngine: the end-to-end system of Figure 1. Given documents (or, with
// a SearchEngine attached, a query), it runs linguistic pre-processing,
// builds per-document semantic graphs, jointly disambiguates and resolves
// co-references, and canonicalizes the result into an on-the-fly KB.
#ifndef QKBFLY_CORE_QKBFLY_H_
#define QKBFLY_CORE_QKBFLY_H_

#include <memory>
#include <string>
#include <vector>

#include "canon/canonicalizer.h"
#include "canon/onthefly_kb.h"
#include "corpus/background_stats.h"
#include "corpus/document.h"
#include "densify/greedy_densifier.h"
#include "graph/graph_builder.h"
#include "kb/entity_repository.h"
#include "kb/pattern_repository.h"
#include "nlp/pipeline.h"
#include "parser/router.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/thread_pool.h"

namespace qkbfly {

/// Which inference algorithm refines the semantic graph.
enum class InferenceMode {
  kJoint,     ///< Greedy constrained densest subgraph (the QKBfly default).
  kPipeline,  ///< Stage-separated NED then CR, no type signatures.
  kNounOnly,  ///< Joint NED but no co-reference resolution (QKBfly-noun).
  kIlp,       ///< Exact ILP solution of Appendix A (QKBfly-ilp).
};

const char* InferenceModeName(InferenceMode mode);

/// Engine configuration.
struct EngineConfig {
  InferenceMode mode = InferenceMode::kJoint;
  DensifyParams params;
  Canonicalizer::Options canon;
  GraphBuilder::Options graph;

  /// Dependency-parser backend for graph building: the linear MaltParser
  /// stand-in, the O(n^3) MST parser, or per-sentence complexity routing
  /// between them (see src/parser/router.h).
  ParserMode parser_mode = ParserMode::kLinear;

  /// The routing dial for kAdaptive: sentences whose complexity score is >=
  /// the threshold are parsed by the MST backend, the rest by the linear
  /// one. 0 reproduces pure MST byte-for-byte, +inf pure linear.
  double parser_complexity_threshold = kDefaultParserComplexityThreshold;

  /// Worker threads of the engine's pool, which BuildKb fans documents
  /// across; <= 1 builds no pool. Results are merged in input order, so
  /// the KB is identical for every thread count.
  int num_threads = 1;

  /// Deterministic string identifying every config field that changes the
  /// *result* of ProcessDocument (mode, densify alphas, canonicalizer and
  /// graph-builder options, parser routing policy). `num_threads` is
  /// deliberately excluded: it only affects scheduling. The corpus epoch
  /// (SearchEngine::epoch()) is not an engine field: it is a separate
  /// component of every cache key. Both parser fields are always folded
  /// in — including the threshold under the non-adaptive modes, where it
  /// cannot change results — so the
  /// doc-tier and query-tier caches can never serve a result computed under
  /// a different routing policy. Used as part of serving-layer cache keys,
  /// so two engines with the same fingerprint may share cached
  /// DocumentFacts (the canonicalizer options are covered, so the cached
  /// post-threshold facts are too).
  std::string Fingerprint() const;
};

/// The per-document intermediate artifacts, exposed so experiments can
/// evaluate individual stages (e.g. mention-level NED precision, Table 4).
struct DocumentResult {
  AnnotatedDocument annotated;
  SemanticGraph graph;
  DensifyResult densified;
  /// Wall time for this document: annotate through Extract, plus Merge once
  /// BuildKb has merged it. Each stage's own time up to Extract goes to its
  /// `pipeline_*_seconds` registry histogram.
  double seconds = 0.0;
};

/// The end-to-end QKBfly system.
class QkbflyEngine {
 public:
  /// All pointers must outlive the engine.
  QkbflyEngine(const EntityRepository* repository,
               const PatternRepository* patterns, const BackgroundStats* stats,
               EngineConfig config);

  /// Runs stages 1-2 on one document. When `trace` is enabled a
  /// `process_document` span (with `annotate`/`graph_build`/`densify`
  /// children and doc-id / graph-size attributes) is attached under its
  /// parent; tracing never affects the result.
  DocumentResult ProcessDocument(const Document& doc,
                                 obs::TraceContext trace = {}) const;

  /// The per-document unit BuildKb and the serving layer's doc tier share:
  /// ProcessDocument, then Canonicalizer::Extract (timed into
  /// `pipeline_canonicalize_seconds`) under an `extract` span beside
  /// `process_document`. When `result` is non-null it receives the
  /// DocumentResult. Touches no KB, so safe to call concurrently.
  DocumentFacts ExtractDocument(const Document& doc,
                                obs::TraceContext trace = {},
                                DocumentResult* result = nullptr) const;

  /// Runs stage 3 untimed, adding the document's facts to `kb`:
  /// Canonicalizer::Merge(kb, Extract(result)).
  void PopulateKb(OnTheFlyKb* kb, const DocumentResult& result) const;

  /// Full run over a set of documents: ExtractDocument per document, on the
  /// engine's pool when config().num_threads > 1, then Canonicalizer::Merge
  /// on the calling thread in input order, so the KB matches the serial run
  /// exactly. When `doc_results` is non-null it receives one DocumentResult
  /// per input document (in input order). The trace context is propagated by
  /// value into every pooled task, so each document's `process_document`,
  /// `extract` and `merge` spans parent to this call's `build_kb` span.
  OnTheFlyKb BuildKb(const std::vector<Document>& docs,
                     std::vector<DocumentResult>* doc_results = nullptr,
                     obs::TraceContext trace = {}) const;
  OnTheFlyKb BuildKb(const std::vector<const Document*>& docs,
                     std::vector<DocumentResult>* doc_results = nullptr,
                     obs::TraceContext trace = {}) const;

  const EngineConfig& config() const { return config_; }
  const EntityRepository& repository() const { return *repository_; }
  const PatternRepository& patterns() const { return *patterns_; }
  const BackgroundStats& stats() const { return *stats_; }
  const NlpPipeline& nlp() const { return nlp_; }
  const Canonicalizer& canonicalizer() const { return canonicalizer_; }

  /// Creates an empty KB bound to this engine's repositories.
  OnTheFlyKb MakeKb() const { return OnTheFlyKb(repository_, patterns_); }

 private:
  const EntityRepository* repository_;
  const PatternRepository* patterns_;
  const BackgroundStats* stats_;
  EngineConfig config_;
  NlpPipeline nlp_;
  std::unique_ptr<GraphBuilder> builder_;
  Canonicalizer canonicalizer_;
  std::unique_ptr<ThreadPool> pool_;  ///< Present when num_threads > 1.

  // Registry instruments, fetched once at construction (stable pointers).
  obs::Counter* documents_total_;
  obs::Histogram* annotate_seconds_;
  obs::Histogram* graph_build_seconds_;
  obs::Histogram* densify_seconds_;
  obs::Histogram* canonicalize_seconds_;
  obs::Counter* densify_contributions_total_;
  obs::Counter* densify_edges_removed_total_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CORE_QKBFLY_H_
