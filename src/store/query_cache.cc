#include "store/query_cache.h"

#include "obs/metrics.h"

namespace qkbfly {

size_t CachedAnswer::ApproxBytes() const {
  size_t bytes = sizeof(*this) + kb_bytes.size();
  for (const std::string& a : answers) bytes += sizeof(a) + a.size();
  return bytes;
}

std::string QueryKey(std::string_view normalized_query, CorpusEpoch epoch,
                     std::string_view fingerprint) {
  return memo::JoinKey(
      {normalized_query, std::to_string(epoch), fingerprint});
}

memo::Instruments memo::Traits<CachedAnswer>::Bind() {
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
                                       "Ready CachedAnswer bytes resident");
  m.resident_entries = registry.GetGauge(
      "query_cache_resident_entries", "Ready CachedAnswer entries resident");
  return m;
}

}  // namespace qkbfly
