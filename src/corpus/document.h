// Documents and document stores. A background-corpus document may carry
// anchors — the Wikipedia href links the paper mines for mention-entity
// priors — while query-time documents are plain text.
#ifndef QKBFLY_CORPUS_DOCUMENT_H_
#define QKBFLY_CORPUS_DOCUMENT_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kb/entity_repository.h"
#include "util/status.h"

namespace qkbfly {

/// Monotonically increasing version of the document corpora behind a serving
/// stack. Every derived artifact (cached DocumentResults, cached query KBs,
/// accumulated FactStore facts) is tagged with the epoch it was computed
/// under; bumping the epoch (SearchEngine::BumpEpoch after a reindex)
/// lazily invalidates everything derived from the older corpus.
using CorpusEpoch = uint64_t;

/// A hyperlink-style annotation: in sentence `sentence`, the surface string
/// `surface` links to `entity`.
struct Anchor {
  int sentence = 0;
  std::string surface;
  EntityId entity = kInvalidEntity;
};

/// One document.
struct Document {
  std::string id;
  std::string title;
  std::string text;
  std::vector<Anchor> anchors;  ///< Only present on background-corpus docs.
};

/// An append-only collection of documents with id lookup.
class DocumentStore {
 public:
  /// Adds a document; its id must be unique.
  Status Add(Document doc);

  size_t size() const { return docs_.size(); }
  const Document& at(size_t index) const { return docs_.at(index); }

  StatusOr<const Document*> FindById(std::string_view id) const;

  const std::vector<Document>& all() const { return docs_; }

 private:
  std::vector<Document> docs_;
  std::unordered_map<std::string, size_t> by_id_;
};

}  // namespace qkbfly

#endif  // QKBFLY_CORPUS_DOCUMENT_H_
