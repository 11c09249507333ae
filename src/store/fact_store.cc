#include "store/fact_store.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <tuple>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

constexpr char kSep = '\x1f';

void AppendJsonStringArray(const std::vector<std::string>& values,
                           std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    json::AppendJsonString(values[i], out);
  }
  out->push_back(']');
}

/// Reads an array of strings; false for any other value.
bool GetStrings(json::Value array, std::vector<std::string>* out) {
  if (!array.is_array()) return false;
  out->clear();
  out->reserve(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    json::Value element = array.at(i);
    if (!element.is_string()) return false;
    out->emplace_back(element.text());
  }
  return true;
}

void SortUnique(std::vector<std::string>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

/// Merges two sorted-unique string sets in place.
void MergeInto(std::vector<std::string>* into,
               const std::vector<std::string>& from) {
  for (const std::string& s : from) into->push_back(s);
  SortUnique(into);
}

}  // namespace

std::string FactRecord::Key() const {
  std::string key;
  key.reserve(subject.size() + relation.size() + 8);
  key.append(subject);
  key.push_back(kSep);
  key.append(relation);
  key.push_back(kSep);
  key.push_back(negated ? '1' : '0');
  for (const std::string& a : args) {
    key.push_back(kSep);
    key.append(a);
  }
  return key;
}

size_t FactRecord::ApproxBytes() const {
  size_t bytes = sizeof(*this) + subject.size() + relation.size();
  for (const std::string& a : args) bytes += sizeof(a) + a.size();
  for (const std::string& d : doc_ids) bytes += sizeof(d) + d.size();
  for (const std::string& q : queries) bytes += sizeof(q) + q.size();
  return bytes;
}

FactStore::FactStore(size_t qa_byte_budget)
    : answers_(QueryKbCache::Options{qa_byte_budget}) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  facts_total_ = registry.GetCounter(
      "store_facts_total",
      "Facts ingested into the FactStore as new keys (merges excluded)");
  resident_bytes_ = registry.GetGauge(
      "store_resident_bytes",
      "Approximate bytes of fact records resident across FactStore shards");
}

FactStore::Shard& FactStore::ShardFor(std::string_view key) {
  size_t h = std::hash<std::string_view>{}(key);
  return shards_[h % kNumShards];
}

const FactStore::Shard& FactStore::ShardFor(std::string_view key) const {
  size_t h = std::hash<std::string_view>{}(key);
  return shards_[h % kNumShards];
}

void FactStore::DropStaleLocked(Shard& store_shard, CorpusEpoch epoch) {
  for (auto it = store_shard.map.begin(); it != store_shard.map.end();) {
    if (it->second.epoch < epoch) {
      size_t bytes = it->first.size() + it->second.ApproxBytes();
      store_shard.bytes -= bytes;
      resident_bytes_->Add(-static_cast<int64_t>(bytes));
      it = store_shard.map.erase(it);
    } else {
      ++it;
    }
  }
}

bool FactStore::Ingest(FactRecord record) {
  SortUnique(&record.doc_ids);
  SortUnique(&record.queries);
  std::string key = record.Key();
  CorpusEpoch current = epoch();
  Shard& store_shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(store_shard.mutex);
  DropStaleLocked(store_shard, current);
  if (record.epoch < current) return false;  // stale on arrival
  auto it = store_shard.map.find(key);
  if (it == store_shard.map.end()) {
    size_t bytes = key.size() + record.ApproxBytes();
    store_shard.map.emplace(std::move(key), std::move(record));
    store_shard.bytes += bytes;
    resident_bytes_->Add(static_cast<int64_t>(bytes));
    facts_total_->Increment();
    return true;
  }
  FactRecord& existing = it->second;
  size_t before = existing.ApproxBytes();
  existing.confidence = std::max(existing.confidence, record.confidence);
  existing.epoch = std::max(existing.epoch, record.epoch);
  MergeInto(&existing.doc_ids, record.doc_ids);
  MergeInto(&existing.queries, record.queries);
  size_t after = existing.ApproxBytes();
  store_shard.bytes += after - before;
  resident_bytes_->Add(static_cast<int64_t>(after) -
                       static_cast<int64_t>(before));
  return false;
}

size_t FactStore::IngestKb(const OnTheFlyKb& kb, std::string_view query,
                           CorpusEpoch epoch, obs::TraceContext trace) {
  obs::ScopedSpan span(trace, "store_ingest");
  span.AddAttribute("facts", static_cast<int64_t>(kb.size()));
  size_t fresh = 0;
  for (const Fact& f : kb.facts()) {
    FactRecord record;
    record.subject = kb.ArgName(f.subject);
    record.relation = kb.RelationName(f.relation);
    record.args.reserve(f.args.size());
    for (const FactArg& arg : f.args) record.args.push_back(kb.ArgName(arg));
    record.negated = f.negated;
    record.confidence = f.confidence;
    record.epoch = epoch;
    if (!f.doc_id.empty()) record.doc_ids.push_back(f.doc_id);
    if (!query.empty()) record.queries.emplace_back(query);
    if (Ingest(std::move(record))) ++fresh;
  }
  span.AddAttribute("new_facts", static_cast<int64_t>(fresh));
  return fresh;
}

std::vector<FactRecord> FactStore::Snapshot() const {
  CorpusEpoch current = epoch();
  std::vector<FactRecord> out;
  for (const Shard& store_shard : shards_) {
    std::lock_guard<std::mutex> lock(store_shard.mutex);
    for (const auto& [key, record] : store_shard.map) {
      if (record.epoch >= current) out.push_back(record);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FactRecord& a, const FactRecord& b) {
              return a.Key() < b.Key();
            });
  return out;
}

void FactStore::SetEpoch(CorpusEpoch epoch) {
  // A CAS loop, not load-then-store: two racing calls for k and k+1 that
  // both read k-1 must leave k+1, never k.
  CorpusEpoch seen = epoch_.load(std::memory_order_acquire);
  do {
    if (seen >= epoch) return;
#if defined(QKBFLY_CHECK_INVARIANTS)
    // Widens the window between the read and the CAS: about half of the
    // epochs (picked by a hash of `epoch`) pause here, so the racing-bump
    // test fails a load-then-store regression. A bare yield returns at once
    // on idle cores and caught it in 3 runs of 10.
    if ((epoch * 0x9e3779b97f4a7c15ull) >> 63) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
#endif
  } while (!epoch_.compare_exchange_weak(seen, epoch,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire));
  // Stale facts are dropped lazily per shard. The query tier's keys carry
  // the epoch, so its old pairs can never hit again: drop them at once. The
  // CAS above runs this once per advance.
  answers_.Clear();
}

size_t FactStore::fact_count() const {
  CorpusEpoch current = epoch();
  size_t count = 0;
  for (const Shard& store_shard : shards_) {
    std::lock_guard<std::mutex> lock(store_shard.mutex);
    for (const auto& [key, record] : store_shard.map) {
      if (record.epoch >= current) ++count;
    }
  }
  return count;
}

size_t FactStore::ApproxBytesUsed() const {
  size_t bytes = 0;
  for (const Shard& store_shard : shards_) {
    std::lock_guard<std::mutex> lock(store_shard.mutex);
    bytes += store_shard.bytes;
  }
  return bytes + answers_.ApproxBytesUsed();
}

void FactStore::Clear() {
  for (Shard& store_shard : shards_) {
    std::lock_guard<std::mutex> lock(store_shard.mutex);
    resident_bytes_->Add(-static_cast<int64_t>(store_shard.bytes));
    store_shard.map.clear();
    store_shard.bytes = 0;
  }
  answers_.Clear();
}

Status FactStore::Save(const std::string& path) const {
  // Write-to-temp + rename so readers never observe a torn snapshot. Each
  // record is rendered into one reused line buffer and streamed to the file,
  // so the snapshot never exists whole in memory.
  const std::string tmp = path + ".tmp";
  std::ofstream file(tmp, std::ios::binary | std::ios::trunc);
  if (!file) return Status::Internal("cannot open " + tmp + " for writing");
  std::string out;
  auto write_out = [&] {
    file.write(out.data(), static_cast<std::streamsize>(out.size()));
    out.clear();
  };

  const CorpusEpoch current = epoch();
  out.append("{\"qkbfly_fact_store\":1,\"epoch\":");
  AppendUint(current, &out);
  out.append("}\n");
  write_out();

  for (const FactRecord& record : Snapshot()) {
    out.append("{\"kind\":\"fact\",\"subject\":");
    json::AppendJsonString(record.subject, &out);
    out.append(",\"relation\":");
    json::AppendJsonString(record.relation, &out);
    out.append(",\"args\":");
    AppendJsonStringArray(record.args, &out);
    out.append(record.negated ? ",\"negated\":true" : ",\"negated\":false");
    out.append(",\"confidence\":");
    AppendExactDouble(record.confidence, &out);
    out.append(",\"epoch\":");
    AppendUint(record.epoch, &out);
    out.append(",\"docs\":");
    AppendJsonStringArray(record.doc_ids, &out);
    out.append(",\"queries\":");
    AppendJsonStringArray(record.queries, &out);
    out.append("}\n");
    write_out();
  }

  std::vector<std::shared_ptr<const QaPair>> pairs = answers_.Values();
  std::sort(pairs.begin(), pairs.end(),
            [](const std::shared_ptr<const QaPair>& a,
               const std::shared_ptr<const QaPair>& b) {
              return std::tie(a->question, a->fingerprint, a->epoch) <
                     std::tie(b->question, b->fingerprint, b->epoch);
            });
  // One serialization buffer for every in-process pair's KB.
  std::string kb_bytes;
  for (const auto& pair : pairs) {
    if (pair->epoch < current) continue;
    out.append("{\"kind\":\"qa\",\"question\":");
    json::AppendJsonString(pair->question, &out);
    out.append(",\"fingerprint\":");
    json::AppendJsonString(pair->fingerprint, &out);
    out.append(",\"epoch\":");
    AppendUint(pair->epoch, &out);
    out.append(",\"documents\":");
    AppendUint(pair->documents, &out);
    out.append(",\"answers\":");
    AppendJsonStringArray(pair->answers, &out);
    out.append(",\"kb\":");
    if (pair->kb != nullptr) {
      pair->kb->SerializeInto(&kb_bytes);
      json::AppendJsonString(kb_bytes, &out);
    } else {
      json::AppendJsonString(pair->kb_bytes, &out);
    }
    out.append("}\n");
    write_out();
  }

  file.close();
  if (file.fail()) {
    std::remove(tmp.c_str());
    return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("cannot rename " + tmp + " to " + path);
  }
  return Status::OK();
}

Status FactStore::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound("cannot open " + path);

  Clear();
  size_t line_no = 0;
  auto fail = [&](const std::string& what) {
    Clear();
    return Status::InvalidArgument(path + " line " + std::to_string(line_no) +
                                   ": " + what);
  };

  json::Document doc;
  std::string error;
  bool saw_header = false;
  // Line by line, like Save writes it: the snapshot is never held whole.
  std::string line;
  while (std::getline(file, line)) {
    if (file.eof()) return fail("missing trailing newline");
    ++line_no;
    if (line.empty()) continue;

    if (!doc.Parse(line, &error)) return fail(error);
    json::Value root = doc.root();
    if (!root.is_object()) return fail("record is not an object");

    // Epochs and counts are exact unsigned integers: a fraction, a sign, an
    // exponent or an overflow is a schema violation, never a cast.
    if (!saw_header) {
      uint64_t version = 0;
      CorpusEpoch header_epoch = 0;
      if (root.size() != 2 ||
          !root.Find("qkbfly_fact_store").GetUint64(&version) || version != 1 ||
          !root.Find("epoch").GetUint64(&header_epoch) || header_epoch < 1) {
        return fail("bad snapshot header");
      }
      epoch_.store(header_epoch, std::memory_order_release);
      saw_header = true;
      continue;
    }

    json::Value kind = root.Find("kind");
    if (!kind.is_string()) return fail("record missing string 'kind'");
    if (kind.text() == "fact") {
      FactRecord record;
      json::Value subject = root.Find("subject");
      json::Value relation = root.Find("relation");
      json::Value negated = root.Find("negated");
      if (root.size() != 9 || !subject.is_string() || !relation.is_string() ||
          !GetStrings(root.Find("args"), &record.args) || !negated.is_bool() ||
          !root.Find("confidence").GetDouble(&record.confidence) ||
          !root.Find("epoch").GetUint64(&record.epoch) ||
          !GetStrings(root.Find("docs"), &record.doc_ids) ||
          !GetStrings(root.Find("queries"), &record.queries)) {
        return fail("bad fact record schema");
      }
      record.subject = subject.text();
      record.relation = relation.text();
      record.negated = negated.boolean();
      (void)Ingest(std::move(record));
    } else if (kind.text() == "qa") {
      QaPair pair;
      json::Value question = root.Find("question");
      json::Value fingerprint = root.Find("fingerprint");
      json::Value kb = root.Find("kb");
      uint64_t documents = 0;
      if (root.size() != 7 || !question.is_string() ||
          !fingerprint.is_string() ||
          !root.Find("epoch").GetUint64(&pair.epoch) ||
          !root.Find("documents").GetUint64(&documents) ||
          !GetStrings(root.Find("answers"), &pair.answers) || !kb.is_string()) {
        return fail("bad qa record schema");
      }
      pair.question = question.text();
      pair.fingerprint = fingerprint.text();
      pair.documents = documents;
      pair.kb_bytes = kb.text();
      std::string key = QueryKey(pair.question, pair.epoch, pair.fingerprint);
      (void)answers_.Insert(key, std::move(pair));
    } else {
      return fail("unknown record kind '" + std::string(kind.text()) + "'");
    }
  }
  if (file.bad()) return fail("read error");
  if (!saw_header) return fail("empty snapshot");
  return Status::OK();
}

}  // namespace qkbfly
