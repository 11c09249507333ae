#include "store/query_cache.h"

#include <cctype>

#include "obs/metrics.h"

namespace qkbfly {

size_t QaPair::ApproxBytes() const {
  size_t bytes = sizeof(*this) + question.size() + fingerprint.size() +
                 kb_bytes.size() + (kb != nullptr ? kb->ApproxBytes() : 0);
  for (const std::string& a : answers) bytes += sizeof(a) + a.size();
  return bytes;
}

std::string NormalizeQuestion(std::string_view question) {
  std::string out;
  out.reserve(question.size());
  bool pending_space = false;
  for (char c : question) {
    unsigned char u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      if (pending_space && !out.empty()) out.push_back(' ');
      pending_space = false;
      out.push_back(static_cast<char>(std::tolower(u)));
    } else {
      pending_space = true;
    }
  }
  return out;
}

std::string QueryKey(std::string_view normalized_query, CorpusEpoch epoch,
                     std::string_view fingerprint) {
  return memo::JoinKey(
      {normalized_query, std::to_string(epoch), fingerprint});
}

memo::Instruments memo::Traits<QaPair>::Bind() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  Instruments m;
  m.hits = registry.GetCounter("query_cache_hits_total",
                               "QueryKbCache lookups served without answering "
                               "(ready or joined in-flight)");
  m.misses = registry.GetCounter("query_cache_misses_total",
                                 "QueryKbCache lookups that ran the full "
                                 "answer pipeline");
  m.evictions = registry.GetCounter("query_cache_evictions_total",
                                    "QueryKbCache entries evicted by the "
                                    "byte budget");
  m.resident_bytes = registry.GetGauge("query_cache_resident_bytes",
                                       "Ready QaPair bytes resident");
  m.resident_entries = registry.GetGauge("query_cache_resident_entries",
                                         "Ready QaPair entries resident");
  return m;
}

}  // namespace qkbfly
