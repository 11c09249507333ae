// Benchmark fixture: the seeded world at 6x the default WorldConfig counts,
// its corpora, search index and engine, the warm-up pass, and the serial
// layer-composed pipeline (annotate -> graph build -> densify -> populate)
// that serves both as the byte-identity reference for BuildKb and as the
// traced per-layer split.
#ifndef QKBFLY_PERFBENCH_FIXTURE_H_
#define QKBFLY_PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/qkbfly.h"
#include "retrieval/search_engine.h"
#include "synth/dataset.h"
#include "util/timer.h"

namespace qkbfly::perfbench {

enum class Workload { kBuildCold, kServeZipf, kServeChurn };

/// Parses "build_cold" / "serve_zipf" / "serve_churn".
bool ParseWorkload(std::string_view name, Workload* workload);

/// Load stays within a 4-core box: BuildKb fans out over 4 workers, and the
/// serve workloads drive KbService from 4 closed-loop client threads.
inline constexpr int kThreads = 4;

/// Spans recorded by the benchmark around its own calls into the library's
/// public functions. Single-threaded; kept in memory and written out as
/// JSON lines when the run ends.
class SpanLog {
 public:
  /// Opens a span (parent -1 = root) and returns its id.
  int Begin(const char* name, int parent = -1);
  void End(int id);

  /// Sum over spans named `name` of their duration minus the time covered
  /// by their child spans, in milliseconds.
  double SelfMs(std::string_view name) const;

  /// Durations of the spans named `name`, in milliseconds.
  std::vector<double> DurationsMs(std::string_view name) const;

  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int parent;
    double start_ms;
    double end_ms;
  };
  WallTimer clock_;
  std::vector<Span> spans_;
};

struct Fixture {
  std::unique_ptr<SynthDataset> ds;
  DocumentStore wiki;  ///< Serving corpus, "Wikipedia" source.
  DocumentStore news;  ///< Serving corpus, news source.
  std::unique_ptr<SearchEngine> search;  ///< Serve workloads only.
  std::unique_ptr<QkbflyEngine> engine;  ///< EngineConfig::num_threads = 4.

  /// The documents the workload processes: wiki, news and wikia for
  /// build_cold; the serving corpus (wiki + news) otherwise.
  std::vector<const Document*> docs;
  /// Query universe of the serve workloads: the titles of the wiki articles.
  std::vector<std::string> titles;
  std::unordered_map<std::string, const GoldDocument*> gold_by_id;

  /// Wall time of everything above plus the warm-up pass.
  double setup_s = 0.0;
};

/// Generates the world from `seed` and builds everything the workload
/// needs, then runs one untimed pass so the process-wide memos
/// (LooseCandidates LRU, TokenSymbols, Lemmatizer) are warm: a BuildKb over
/// `docs` for build_cold, one answer per title through a throwaway service
/// with default options for the serve workloads.
std::unique_ptr<Fixture> SetUp(Workload workload, uint64_t seed);

/// Sizes the composed pipeline reports alongside the KB.
struct LayerCounts {
  size_t docs = 0;
  size_t tokens = 0;
  size_t nodes = 0;
  size_t edges = 0;
  size_t edges_removed = 0;
};

/// Builds the KB of `docs` serially by composing the public per-layer calls
/// with the engine's configuration. With `log`, each document gets a
/// "document" span with "nlp.annotate", "graph.build", "densify" and
/// "canon.populate" children, followed by a separate root "parser.parse"
/// span that re-parses the annotated sentences with the linear parser
/// (parsing also runs inside graph.build, so it is not a child).
OnTheFlyKb ComposeSerial(const Fixture& fx,
                         const std::vector<const Document*>& docs,
                         SpanLog* log, LayerCounts* counts);

/// Facts FactJudge accepts against the gold document named by Fact::doc_id.
struct Precision {
  size_t correct = 0;
  size_t judged = 0;
  double Value() const {
    return judged == 0 ? 0.0 : static_cast<double>(correct) / judged;
  }
};
void JudgeKb(const Fixture& fx, const OnTheFlyKb& kb, Precision* precision);

}  // namespace qkbfly::perfbench

#endif  // QKBFLY_PERFBENCH_FIXTURE_H_
