#include "store/qa_pair_index.h"

#include <cctype>

namespace qkbfly {

namespace {
constexpr char kSep = '\x1f';
}  // namespace

size_t QaPair::ApproxBytes() const {
  size_t bytes = sizeof(*this) + question.size() + fingerprint.size() +
                 kb_bytes.size() + (kb != nullptr ? kb->ApproxBytes() : 0);
  for (const std::string& a : answers) bytes += sizeof(a) + a.size();
  return bytes;
}

std::string QaPairIndex::NormalizeQuestion(std::string_view question) {
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

std::string QaPairIndex::MapKey(std::string_view question,
                                std::string_view fingerprint) {
  std::string key;
  key.reserve(question.size() + 1 + fingerprint.size());
  key.append(question);
  key.push_back(kSep);
  key.append(fingerprint);
  return key;
}

void QaPairIndex::Record(QaPair pair) {
  std::string key = MapKey(pair.question, pair.fingerprint);
  auto value = std::make_shared<const QaPair>(std::move(pair));
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it != by_key_.end() && it->second->epoch > value->epoch) return;
  by_key_[std::move(key)] = value;
}

std::shared_ptr<const QaPair> QaPairIndex::Find(
    std::string_view question, CorpusEpoch epoch,
    std::string_view fingerprint) const {
  std::string key = MapKey(question, fingerprint);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_key_.find(key);
  if (it == by_key_.end() || it->second->epoch != epoch) return nullptr;
  return it->second;
}

void QaPairIndex::DropStale(CorpusEpoch epoch) {
  // Declared before the guard, so the stale pairs are released after the
  // unlock: dropping the last reference to a pair's KB frees hundreds of
  // allocations, which must not stall Record and Find.
  std::vector<std::shared_ptr<const QaPair>> stale;
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = by_key_.begin(); it != by_key_.end();) {
    if (it->second->epoch < epoch) {
      stale.push_back(std::move(it->second));
      it = by_key_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::shared_ptr<const QaPair>> QaPairIndex::All() const {
  std::vector<std::shared_ptr<const QaPair>> out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.reserve(by_key_.size());
  for (const auto& [key, pair] : by_key_) out.push_back(pair);
  return out;  // by_key_ is ordered, so this is the deterministic order
}

size_t QaPairIndex::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_key_.size();
}

size_t QaPairIndex::ApproxBytesUsed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t bytes = 0;
  for (const auto& [key, pair] : by_key_) {
    bytes += key.size() + pair->ApproxBytes();
  }
  return bytes;
}

void QaPairIndex::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  by_key_.clear();
}

}  // namespace qkbfly
