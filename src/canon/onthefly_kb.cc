#include "canon/onthefly_kb.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <functional>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace qkbfly {

namespace {

// Serialization escaping: fields are tab-separated and records are
// newline-separated, so those two characters (plus backslash and CR) are the
// only ones that need escaping. Everything else passes through byte-for-byte,
// which keeps the format deterministic and diffable. Unescaped runs are
// appended whole.
void AppendEscaped(std::string_view field, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    const char* escape;
    switch (field[i]) {
      case '\\': escape = "\\\\"; break;
      case '\t': escape = "\\t"; break;
      case '\n': escape = "\\n"; break;
      case '\r': escape = "\\r"; break;
      default: continue;
    }
    out->append(field.data() + run, i - run);
    out->append(escape, 2);
    run = i + 1;
  }
  out->append(field.data() + run, field.size() - run);
}

/// Inverse of AppendEscaped; rejects what it never emits (a raw CR, a
/// dangling or unknown escape), so an accepted field re-escapes to itself.
/// Like AppendEscaped, runs without an escape are appended whole.
bool Unescape(std::string_view field, std::string* out) {
  out->clear();
  size_t run = 0;
  for (size_t i = 0; i < field.size(); ++i) {
    char c = field[i];
    if (c == '\r') return false;
    if (c != '\\') continue;
    if (i + 1 >= field.size()) return false;
    switch (field[i + 1]) {
      case '\\': c = '\\'; break;
      case 't': c = '\t'; break;
      case 'n': c = '\n'; break;
      case 'r': c = '\r'; break;
      default: return false;
    }
    out->append(field.data() + run, i - run);
    out->push_back(c);
    ++i;  // the escape's second byte
    run = i + 1;
  }
  out->append(field.data() + run, field.size() - run);
  return true;
}

/// Splits one record on raw tabs (escaped tabs are the two-byte "\t") into
/// `fields`, which is reused from record to record.
void SplitFields(std::string_view line, std::vector<std::string_view>* fields) {
  fields->clear();
  size_t start = 0;
  for (size_t i = 0; i <= line.size(); ++i) {
    if (i == line.size() || line[i] == '\t') {
      fields->push_back(line.substr(start, i - start));
      start = i + 1;
    }
  }
}

/// Parses a non-negative integer exactly as Serialize prints one: decimal
/// digits, no sign, no leading zero, at most `max`. Any other spelling would
/// either re-serialize differently or alias another id once narrowed.
bool ParseUint(std::string_view s, uint64_t max, uint64_t* out) {
  // Up to 19 digits cannot overflow a uint64_t, so one range check at the
  // end suffices (this runs on every query-tier hit).
  if (s.empty() || s.size() > 19 || (s.size() > 1 && s.front() == '0')) {
    return false;
  }
  uint64_t value = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (value > max) return false;
  *out = value;
  return true;
}

/// Parses an int as "%d" prints it: ParseUint's rules plus an optional
/// '-', which never precedes 0.
bool ParseInt(std::string_view s, int* out) {
  bool negative = !s.empty() && s.front() == '-';
  uint64_t max = static_cast<uint64_t>(std::numeric_limits<int>::max()) +
                 (negative ? 1 : 0);
  uint64_t magnitude = 0;
  if (!ParseUint(negative ? s.substr(1) : s, max, &magnitude) ||
      (negative && magnitude == 0)) {
    return false;
  }
  *out = static_cast<int>(negative ? -static_cast<int64_t>(magnitude)
                                   : static_cast<int64_t>(magnitude));
  return true;
}

/// Reads a confidence as a finite decimal double that std::from_chars
/// consumes in full: Serialize's spelling, never a leading '+', whitespace
/// or a hex float.
bool ParseDouble(std::string_view s, double* out) {
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size() && std::isfinite(*out);
}

/// Bytes AppendUint prints for `v`.
size_t UintSize(uint64_t v) {
  size_t digits = 1;
  for (; v >= 10; v /= 10) ++digits;
  return digits;
}

/// Bytes AppendInt prints for `v`.
size_t IntSize(int64_t v) {
  return v < 0 ? 1 + UintSize(0 - static_cast<uint64_t>(v)) : UintSize(v);
}

/// Bytes AppendArg writes for `arg`, escapes not counted: the kind and NER
/// type are one digit each.
size_t ArgSizeAtLeast(const FactArg& arg) {
  return 8 + UintSize(arg.entity) + UintSize(arg.emerging) +
         arg.surface.size() + arg.normalized.size();
}

void AppendArg(const FactArg& arg, std::string* out) {
  out->push_back('\t');
  AppendInt(static_cast<int>(arg.kind), out);
  out->push_back('\t');
  AppendUint(arg.entity, out);
  out->push_back('\t');
  AppendUint(arg.emerging, out);
  out->push_back('\t');
  AppendEscaped(arg.surface, out);
  out->push_back('\t');
  AppendEscaped(arg.normalized, out);
  out->push_back('\t');
  AppendInt(static_cast<int>(arg.ner), out);
}

constexpr size_t kArgFields = 6;
constexpr char kHeader[] = "qkbfly-kb\t1";

constexpr uint64_t kMaxId = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxNer = static_cast<uint64_t>(NerType::kNumber);

bool ParseArg(const std::vector<std::string_view>& fields, size_t at,
              FactArg* arg) {
  uint64_t kind = 0;
  uint64_t entity = 0;
  uint64_t emerging = 0;
  uint64_t ner = 0;
  if (!ParseUint(fields[at],
                 static_cast<uint64_t>(FactArg::Kind::kLiteral), &kind) ||
      !ParseUint(fields[at + 1], kMaxId, &entity) ||
      !ParseUint(fields[at + 2], kMaxId, &emerging) ||
      !Unescape(fields[at + 3], &arg->surface) ||
      !Unescape(fields[at + 4], &arg->normalized) ||
      !ParseUint(fields[at + 5], kMaxNer, &ner)) {
    return false;
  }
  arg->kind = static_cast<FactArg::Kind>(kind);
  arg->entity = static_cast<EntityId>(entity);
  arg->emerging = static_cast<EmergingId>(emerging);
  arg->ner = static_cast<NerType>(ner);
  return true;
}

size_t Mix(size_t seed, size_t value) {
  return seed ^ (value + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2));
}

/// Hash consistent with FactArg::operator==: a literal hashes the text it
/// compares by.
size_t ArgHash(const FactArg& arg) {
  const size_t kind = static_cast<size_t>(arg.kind);
  switch (arg.kind) {
    case FactArg::Kind::kEntity: return Mix(kind, arg.entity);
    case FactArg::Kind::kEmerging: return Mix(kind, arg.emerging);
    case FactArg::Kind::kLiteral:
      return Mix(kind, std::hash<std::string_view>{}(
                           arg.normalized.empty() ? arg.surface
                                                  : arg.normalized));
  }
  return kind;
}

/// Hash of the fields AddFact merges on.
size_t MergeHash(const Fact& fact) {
  size_t h = Mix(fact.relation, fact.negated ? 1 : 0);
  h = Mix(h, ArgHash(fact.subject));
  for (const FactArg& arg : fact.args) h = Mix(h, ArgHash(arg));
  return h;
}

bool SameMergeKey(const Fact& a, const Fact& b) {
  return a.relation == b.relation && a.negated == b.negated &&
         a.subject == b.subject && a.args == b.args;
}

}  // namespace

void OnTheFlyKb::AddFact(Fact fact) {
  // Merge with an equivalent fact: same canonical relation, same subject and
  // the same arguments (the paper combines node-edge-node triples whose edge
  // labels fall into one synset).
  for (; indexed_facts_ < facts_.size(); ++indexed_facts_) {
    fact_index_.emplace(MergeHash(facts_[indexed_facts_]), indexed_facts_);
  }
  const size_t hash = MergeHash(fact);
  size_t earliest = facts_.size();
  auto [begin, end] = fact_index_.equal_range(hash);
  for (auto it = begin; it != end; ++it) {
    if (it->second < earliest && SameMergeKey(facts_[it->second], fact)) {
      earliest = it->second;
    }
  }
  if (earliest < facts_.size()) {
    Fact& existing = facts_[earliest];
    existing.confidence = std::max(existing.confidence, fact.confidence);
    return;
  }
  fact_index_.emplace(hash, facts_.size());
  facts_.push_back(std::move(fact));
  indexed_facts_ = facts_.size();
}

EmergingId OnTheFlyKb::AddEmergingEntity(std::string representative,
                                         std::vector<std::string> mentions,
                                         NerType ner) {
  EmergingEntity e;
  e.id = static_cast<EmergingId>(emerging_.size());
  e.representative = std::move(representative);
  e.mentions = std::move(mentions);
  e.ner = ner;
  emerging_.push_back(std::move(e));
  return emerging_.back().id;
}

RelationId OnTheFlyKb::RelationFor(std::string_view pattern) {
  if (auto known = patterns_->Lookup(pattern)) return *known;
  std::string key = PatternRepository::Normalize(pattern);
  auto it = new_relations_.find(key);
  if (it != new_relations_.end()) return it->second;
  RelationId id = static_cast<RelationId>(patterns_->size() + new_relation_names_.size());
  new_relations_.emplace(key, id);
  new_relation_names_.push_back(key);
  return id;
}

const std::string& OnTheFlyKb::RelationName(RelationId id) const {
  if (id < patterns_->size()) return patterns_->CanonicalName(id);
  size_t local = id - patterns_->size();
  QKB_CHECK_LT(local, new_relation_names_.size());
  return new_relation_names_[local];
}

std::string OnTheFlyKb::ArgName(const FactArg& arg) const {
  switch (arg.kind) {
    case FactArg::Kind::kEntity:
      return repository_->Get(arg.entity).canonical_name;
    case FactArg::Kind::kEmerging:
      // Out-of-repository entities are starred, as in the paper's Table 1.
      return emerging_.at(arg.emerging).representative + "*";
    case FactArg::Kind::kLiteral:
      return "\"" + (arg.normalized.empty() ? arg.surface : arg.normalized) + "\"";
  }
  return arg.surface;
}

std::string OnTheFlyKb::FactToString(const Fact& fact) const {
  std::string out = "<";
  out += ArgName(fact.subject);
  out += fact.negated ? ", not " : ", ";
  out += RelationName(fact.relation);
  for (const FactArg& arg : fact.args) {
    out += ", ";
    out += ArgName(arg);
  }
  out += ">";
  return out;
}

size_t OnTheFlyKb::triple_count() const {
  size_t count = 0;
  for (const Fact& f : facts_) {
    if (f.Arity() == 2) ++count;
  }
  return count;
}

size_t OnTheFlyKb::higher_arity_count() const {
  size_t count = 0;
  for (const Fact& f : facts_) {
    if (f.Arity() >= 3) ++count;
  }
  return count;
}

bool OnTheFlyKb::TypeMatches(const FactArg& arg, std::string_view type_name) const {
  auto type = repository_->type_system().Find(Uppercase(type_name));
  if (!type) return false;
  if (arg.kind == FactArg::Kind::kEntity) {
    return repository_->HasType(arg.entity, *type);
  }
  if (arg.kind == FactArg::Kind::kEmerging) {
    // Emerging entities only carry a coarse NER type.
    return repository_->type_system().CoarseOf(*type) ==
               emerging_.at(arg.emerging).ner &&
           repository_->type_system().Name(*type) ==
               NerTypeName(emerging_.at(arg.emerging).ner);
  }
  return false;
}

bool OnTheFlyKb::ArgMatches(const FactArg& arg, std::string_view filter) const {
  if (filter.empty()) return true;
  if (StartsWith(filter, "Type:")) return TypeMatches(arg, filter.substr(5));
  std::string name = Lowercase(ArgName(arg));
  std::string needle = Lowercase(filter);
  return name.find(needle) != std::string::npos;
}

std::string OnTheFlyKb::Serialize() const {
  std::string out;
  SerializeInto(&out);
  return out;
}

void OnTheFlyKb::SerializeInto(std::string* buffer) const {
  // One reserve from a lower bound on the output: every field's bytes but
  // the escapes, and each confidence at its exact length. Escapes are rare,
  // so a fresh string is almost always built without a reallocation and
  // ends with no spare capacity.
  size_t size = sizeof(kHeader);
  for (const EmergingEntity& e : emerging_) {
    size += 5 + e.representative.size();
    for (const std::string& m : e.mentions) size += 1 + m.size();
  }
  for (const std::string& name : new_relation_names_) size += 3 + name.size();
  for (const Fact& f : facts_) {
    size += 9 + UintSize(f.relation) + f.relation_pattern.size() +
            ExactDoubleSize(f.confidence) + f.doc_id.size() +
            IntSize(f.sentence) + ArgSizeAtLeast(f.subject);
    for (const FactArg& arg : f.args) size += ArgSizeAtLeast(arg);
  }
  std::string& out = *buffer;
  out.clear();
  out.reserve(size);
  out.append(kHeader);
  out.push_back('\n');
  // Emerging entities and KB-local relations are emitted in id order (their
  // storage order), facts in first-occurrence input order — every sequence
  // below is already deterministic, so no sorting is needed here and the
  // bytes are stable across serial/parallel/warm/cold builds.
  for (const EmergingEntity& e : emerging_) {
    out.append("E\t");
    AppendInt(static_cast<int>(e.ner), &out);
    out.push_back('\t');
    AppendEscaped(e.representative, &out);
    for (const std::string& m : e.mentions) {
      out.push_back('\t');
      AppendEscaped(m, &out);
    }
    out.push_back('\n');
  }
  for (const std::string& name : new_relation_names_) {
    out.append("R\t");
    AppendEscaped(name, &out);
    out.push_back('\n');
  }
  for (const Fact& f : facts_) {
    out.append("F\t");
    AppendUint(f.relation, &out);
    out.push_back('\t');
    AppendEscaped(f.relation_pattern, &out);
    out.append(f.negated ? "\t1\t" : "\t0\t");
    AppendExactDouble(f.confidence, &out);
    out.push_back('\t');
    AppendEscaped(f.doc_id, &out);
    out.push_back('\t');
    AppendInt(f.sentence, &out);
    AppendArg(f.subject, &out);
    for (const FactArg& arg : f.args) AppendArg(arg, &out);
    out.push_back('\n');
  }
}

Status OnTheFlyKb::Deserialize(std::string_view data) {
  if (!facts_.empty() || !emerging_.empty() || !new_relation_names_.empty()) {
    return Status::FailedPrecondition("Deserialize requires an empty KB");
  }
  size_t line_no = 0;
  size_t pos = 0;
  auto fail = [&](const std::string& what) {
    facts_.clear();
    emerging_.clear();
    new_relations_.clear();
    new_relation_names_.clear();
    return Status::InvalidArgument("KB line " + std::to_string(line_no) + ": " +
                                   what);
  };
  bool saw_header = false;
  std::vector<std::string_view> fields;
  while (pos < data.size()) {
    size_t eol = data.find('\n', pos);
    if (eol == std::string_view::npos) return fail("missing trailing newline");
    std::string_view line = data.substr(pos, eol - pos);
    pos = eol + 1;
    ++line_no;
    if (line_no == 1) {
      if (line != kHeader) return fail("bad header");
      saw_header = true;
      continue;
    }
    SplitFields(line, &fields);
    if (fields[0] == "E") {
      if (fields.size() < 3) return fail("short emerging-entity record");
      uint64_t ner = 0;
      if (!ParseUint(fields[1], kMaxNer, &ner)) return fail("bad NER type");
      EmergingEntity e;
      e.id = static_cast<EmergingId>(emerging_.size());
      e.ner = static_cast<NerType>(ner);
      if (!Unescape(fields[2], &e.representative)) return fail("bad escape");
      e.mentions.resize(fields.size() - 3);
      for (size_t i = 3; i < fields.size(); ++i) {
        if (!Unescape(fields[i], &e.mentions[i - 3])) return fail("bad escape");
      }
      emerging_.push_back(std::move(e));
    } else if (fields[0] == "R") {
      if (fields.size() != 2) return fail("bad relation record");
      std::string name;
      if (!Unescape(fields[1], &name)) return fail("bad escape");
      RelationId id =
          static_cast<RelationId>(patterns_->size() + new_relation_names_.size());
      new_relations_.emplace(name, id);
      new_relation_names_.push_back(std::move(name));
    } else if (fields[0] == "F") {
      if (fields.size() < 7 + kArgFields ||
          (fields.size() - 7) % kArgFields != 0) {
        return fail("bad fact field count");
      }
      Fact f;
      uint64_t relation = 0;
      uint64_t negated = 0;
      if (!ParseUint(fields[1], kMaxId, &relation) ||
          !Unescape(fields[2], &f.relation_pattern) ||
          !ParseUint(fields[3], 1, &negated) ||
          !ParseDouble(fields[4], &f.confidence) ||
          !Unescape(fields[5], &f.doc_id) ||
          !ParseInt(fields[6], &f.sentence)) {
        return fail("bad fact fields");
      }
      if (relation >= patterns_->size() + new_relation_names_.size()) {
        return fail("fact references undeclared relation");
      }
      f.relation = static_cast<RelationId>(relation);
      f.negated = negated == 1;
      if (!ParseArg(fields, 7, &f.subject)) return fail("bad subject arg");
      size_t extra = (fields.size() - 7) / kArgFields - 1;
      f.args.resize(extra);
      for (size_t i = 0; i < extra; ++i) {
        if (!ParseArg(fields, 7 + (i + 1) * kArgFields, &f.args[i])) {
          return fail("bad fact arg");
        }
      }
      auto check_arg = [&](const FactArg& arg) {
        if (arg.kind == FactArg::Kind::kEmerging &&
            arg.emerging >= emerging_.size()) {
          return false;
        }
        return arg.kind != FactArg::Kind::kEntity ||
               arg.entity < repository_->size();
      };
      if (!check_arg(f.subject)) return fail("bad subject reference");
      for (const FactArg& arg : f.args) {
        if (!check_arg(arg)) return fail("bad arg reference");
      }
      // Facts are appended verbatim (not via AddFact): the serialized stream
      // is already merged, and re-merging would reorder confidence updates.
      facts_.push_back(std::move(f));
    } else {
      return fail("unknown record kind");
    }
  }
  if (!saw_header) return fail("empty input");
  return Status::OK();
}

void OnTheFlyKb::ShrinkToFit() {
  fact_index_ = {};
  indexed_facts_ = 0;
  facts_.shrink_to_fit();
  emerging_.shrink_to_fit();
  new_relation_names_.shrink_to_fit();
}

namespace {

/// Heap bytes a string holds beyond its inline (small-string) buffer.
size_t HeapBytes(const std::string& s) {
  static const size_t kInline = std::string().capacity();
  return s.capacity() > kInline ? s.capacity() + 1 : 0;
}

size_t HeapBytes(const FactArg& arg) {
  return HeapBytes(arg.surface) + HeapBytes(arg.normalized);
}

}  // namespace

size_t OnTheFlyKb::ApproxBytes() const {
  // Every record's fixed-size part (a Fact is ~200 bytes, a FactArg ~90)
  // outweighs its serialized framing, which is what keeps this estimate at
  // or above Serialize().size() for text without escape characters.
  size_t bytes = sizeof(*this) + facts_.capacity() * sizeof(Fact) +
                 emerging_.capacity() * sizeof(EmergingEntity) +
                 new_relation_names_.capacity() * sizeof(std::string) +
                 new_relations_.bucket_count() * sizeof(void*);
  for (const Fact& f : facts_) {
    bytes += HeapBytes(f.relation_pattern) + HeapBytes(f.doc_id) +
             HeapBytes(f.subject) + f.args.capacity() * sizeof(FactArg);
    for (const FactArg& arg : f.args) bytes += HeapBytes(arg);
  }
  for (const EmergingEntity& e : emerging_) {
    bytes += HeapBytes(e.representative) +
             e.mentions.capacity() * sizeof(std::string);
    for (const std::string& m : e.mentions) bytes += HeapBytes(m);
  }
  for (const auto& [name, id] : new_relations_) {
    // One hash node: next pointer, key, value and cached hash code.
    bytes += sizeof(void*) + sizeof(name) + sizeof(id) + sizeof(size_t) +
             HeapBytes(name);
  }
  for (const std::string& name : new_relation_names_) bytes += HeapBytes(name);
  return bytes;
}

std::vector<const Fact*> OnTheFlyKb::Search(std::string_view subject_filter,
                                            std::string_view predicate_filter,
                                            std::string_view object_filter) const {
  std::vector<const Fact*> out;
  std::string pred_needle = Lowercase(predicate_filter);
  // Predicate filters use underscores in the demo UI ("receive_in_from").
  std::replace(pred_needle.begin(), pred_needle.end(), '_', ' ');
  for (const Fact& fact : facts_) {
    if (!ArgMatches(fact.subject, subject_filter)) continue;
    if (!pred_needle.empty()) {
      std::string name = Lowercase(RelationName(fact.relation));
      if (name.find(pred_needle) == std::string::npos) continue;
    }
    if (!object_filter.empty()) {
      bool any = false;
      for (const FactArg& arg : fact.args) {
        if (ArgMatches(arg, object_filter)) any = true;
      }
      if (!any) continue;
    }
    out.push_back(&fact);
  }
  return out;
}

}  // namespace qkbfly
