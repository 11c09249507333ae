// Builds the full experimental universe: world, snapshot repositories,
// background corpus + statistics, and the four evaluation corpora of the
// paper (DEFIE-Wikipedia-like, News, Wikia, Reverb-sentences).
#ifndef QKBFLY_SYNTH_DATASET_H_
#define QKBFLY_SYNTH_DATASET_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "corpus/background_stats.h"
#include "corpus/document.h"
#include "kb/entity_repository.h"
#include "kb/pattern_repository.h"
#include "kb/type_system.h"
#include "synth/renderer.h"
#include "synth/world.h"

namespace qkbfly {

struct DatasetConfig {
  uint64_t seed = 7;
  WorldConfig world;
  int wiki_eval_articles = 50;   ///< DEFIE-Wikipedia analogue.
  int news_docs = 20;            ///< News corpus (sport/celebrity stories).
  int facts_per_news_doc = 4;
  int wikia_pages = 10;          ///< Game-of-Thrones-like pages.
  int wikia_facts_per_page = 18; ///< Long recap pages (the paper's Wikia
                                 ///< pages run to ~88 sentences).
  int reverb_sentences = 200;    ///< Stand-alone Open IE sentences.
};

/// Everything the experiments consume. Heap-allocated because internal
/// pointers (repository -> types, world -> types) must stay stable.
struct SynthDataset {
  DatasetConfig config;
  TypeSystem types;
  std::unique_ptr<World> world;
  PatternRepository patterns;
  std::unique_ptr<EntityRepository> repository;  ///< Snapshot (Yago stand-in).
  std::vector<int> repo_to_world;
  std::unordered_map<int, EntityId> world_to_repo;
  DocumentStore background;
  BackgroundStats stats;

  std::vector<GoldDocument> wiki_eval;
  std::vector<GoldDocument> news;
  std::vector<GoldDocument> wikia;
  std::vector<GoldDocument> reverb;
};

/// Generates the dataset deterministically from the config seed.
std::unique_ptr<SynthDataset> BuildDataset(const DatasetConfig& config);

}  // namespace qkbfly

#endif  // QKBFLY_SYNTH_DATASET_H_
