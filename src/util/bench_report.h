// Machine-readable bench output. Each bench binary collects
// {name, docs, threads, wall_s, facts} records and writes them as a JSON
// array (BENCH_*.json) so the performance trajectory can be compared
// across commits without parsing the human-readable tables.
#ifndef QKBFLY_UTIL_BENCH_REPORT_H_
#define QKBFLY_UTIL_BENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace qkbfly {

/// Collects bench records and serializes them to a JSON file.
class BenchReport {
 public:
  /// Optional per-stage throughput columns for hot-path workloads
  /// (BENCH_hotpath.json): the stage's unit of work (tokens, gazetteer
  /// positions, edges removed), its rate per second, and the per-document
  /// latency distribution.
  struct StageFields {
    uint64_t items = 0;   ///< Work units processed (tokens, positions, ...).
    double rate = 0.0;    ///< Work units per second.
    double p50_ms = 0.0;  ///< Median per-document latency.
    double p95_ms = 0.0;  ///< p95 per-document latency.
  };

  /// Optional extraction-quality columns for quality/latency-frontier
  /// workloads (BENCH_parser.json): precision/recall/F1 against the synth
  /// gold plus the share of sentences the adaptive router sent to the
  /// expensive MST backend.
  struct QualityFields {
    double precision = 0.0;
    double recall = 0.0;
    double f1 = 0.0;
    double mst_share = 0.0;  ///< Fraction of sentences routed to MST [0,1].
  };

  struct Entry {
    std::string name;     ///< Workload identifier, e.g. "table3/QKBfly".
    int docs = 0;         ///< Documents (or items) processed.
    int threads = 1;      ///< Worker threads used.
    double wall_s = 0.0;  ///< End-to-end wall time in seconds.
    uint64_t facts = 0;   ///< Facts (or outputs) produced.
    bool has_stage = false;
    StageFields stage;
    bool has_quality = false;
    QualityFields quality;
  };

  void Add(std::string name, int docs, int threads, double wall_s,
           uint64_t facts);

  /// Same record plus the optional stage-throughput columns.
  void Add(std::string name, int docs, int threads, double wall_s,
           uint64_t facts, const StageFields& stage);

  /// Same record plus the optional extraction-quality columns.
  void Add(std::string name, int docs, int threads, double wall_s,
           uint64_t facts, const QualityFields& quality);

  /// Writes all entries as a JSON array to `path` (overwrites). Returns
  /// false on I/O failure.
  bool WriteJson(const std::string& path) const;

  /// Reads a written report back into `entries`, checking its schema: a
  /// JSON array of flat objects, each carrying the required keys (name as a
  /// non-empty string; docs, threads, facts as unsigned integers; wall_s as
  /// a number) and only known optional columns (stage and quality,
  /// numeric). Returns false and fills `error` (when non-null) on the first
  /// violation. The bench binaries read back every report they write, so
  /// the machine-readable output can never silently rot.
  static bool ReadJsonFile(const std::string& path, std::vector<Entry>* entries,
                           std::string* error);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

}  // namespace qkbfly

#endif  // QKBFLY_UTIL_BENCH_REPORT_H_
