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
#include "util/timer.h"

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

  /// Worker threads used by BuildKb to fan ProcessDocument across documents.
  /// Values <= 1 run the serial path. Results are merged in input order, so
  /// the KB is identical for every thread count.
  int num_threads = 1;

  /// The corpus version this engine's outputs are derived from, used when no
  /// SearchEngine is attached (the serving layer prefers the live
  /// SearchEngine::epoch()). Cache tiers and the fact store key/tag their
  /// artifacts with the epoch, so bumping it lazily invalidates them.
  CorpusEpoch corpus_epoch = 1;

  /// Deterministic string identifying every config field that changes the
  /// *result* of ProcessDocument (mode, densify alphas, canonicalizer and
  /// graph-builder options, parser routing policy). `num_threads` is
  /// deliberately excluded: it only affects scheduling; `corpus_epoch` is
  /// excluded too because the epoch is a separate component of every cache
  /// key. Both parser fields are always folded in — including the threshold
  /// under the non-adaptive modes, where it cannot change results — so the
  /// doc-tier and query-tier caches can never serve a result computed under
  /// a different routing policy. Used as part of serving-layer cache keys,
  /// so two engines with the same fingerprint may share cached
  /// DocumentFacts (the canonicalizer options are covered, so the cached
  /// post-threshold facts are too).
  std::string Fingerprint() const;
};

/// Per-stage wall times for one document (seconds). annotate/graph/densify
/// are measured inside ProcessDocument; canonicalize is filled in by BuildKb
/// when the document is merged into the KB.
struct StageTimings {
  double annotate_s = 0.0;
  double graph_s = 0.0;
  double densify_s = 0.0;
  double canonicalize_s = 0.0;

  double TotalSeconds() const {
    return annotate_s + graph_s + densify_s + canonicalize_s;
  }
};

/// Aggregates StageTimings across a corpus; reports mean and p95 per stage.
struct StageTimingSummary {
  TimingStats annotate;
  TimingStats graph;
  TimingStats densify;
  TimingStats canonicalize;

  void Add(const StageTimings& timings);

  /// Multi-line "stage  mean  p95" table (milliseconds) for bench output.
  std::string Report() const;
};

/// The per-document intermediate artifacts, exposed so experiments can
/// evaluate individual stages (e.g. mention-level NED precision, Table 4).
struct DocumentResult {
  AnnotatedDocument annotated;
  SemanticGraph graph;
  DensifyResult densified;
  double seconds = 0.0;   ///< Wall time for this document.
  StageTimings timings;   ///< Per-stage breakdown of `seconds`.
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

  /// Runs stage 3, adding the document's facts to `kb`:
  /// Canonicalizer::Merge(kb, Extract(result)).
  void PopulateKb(OnTheFlyKb* kb, const DocumentResult& result) const;

  /// Full run over a set of documents. With config().num_threads > 1 the
  /// per-document stages run on a thread pool; canonicalization merges the
  /// results in input order, so the KB matches the serial run exactly. When
  /// `doc_results` is non-null it receives one DocumentResult per input
  /// document (in input order) with all four stage timings filled in.
  /// The trace context is propagated by value into every pooled task, so the
  /// parallel path yields the same span tree as the serial one (per-document
  /// spans all parent to this call's `build_kb` span).
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

  // Registry instruments, fetched once at construction (stable pointers).
  obs::Counter* documents_total_;
  obs::Histogram* annotate_seconds_;
  obs::Histogram* graph_build_seconds_;
  obs::Histogram* densify_seconds_;
  obs::Histogram* canonicalize_seconds_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CORE_QKBFLY_H_
