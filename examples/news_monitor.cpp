// Query-driven KB construction from news, like the paper's Table 2: pick a
// query entity, retrieve matching news documents with BM25, and build an
// up-to-date KB capturing post-snapshot facts and emerging entities.
#include <cstdio>

#include "core/qkbfly.h"
#include "retrieval/search_engine.h"
#include "synth/dataset.h"

using namespace qkbfly;

int main() {
  DatasetConfig config;
  config.news_docs = 30;
  auto dataset = BuildDataset(config);

  // Document stores: current articles ("Wikipedia") and news.
  DocumentStore wiki_store;
  DocumentStore news_store;
  for (const GoldDocument& gd : dataset->wiki_eval) (void)wiki_store.Add(gd.doc);
  for (const GoldDocument& gd : dataset->news) (void)news_store.Add(gd.doc);
  SearchEngine search(&wiki_store, &news_store);

  EngineConfig engine_config;
  QkbflyEngine engine(dataset->repository.get(), &dataset->patterns,
                      &dataset->stats, engine_config);

  // The query: a prominent repository person mentioned in the news corpus.
  std::string query;
  for (const GoldDocument& gd : dataset->news) {
    if (!gd.mentions.empty()) {
      query = dataset->world->entity(gd.mentions.front().entity).name;
      break;
    }
  }
  std::printf("Query: \"%s\"   Corpus: news   Size: 10\n\n", query.c_str());

  auto docs = search.Retrieve(query, SearchEngine::Source::kNews, 10);
  std::printf("LOG:\n");
  for (size_t i = 0; i < docs.size(); ++i) {
    std::printf("%zu - %s\n", i + 1, docs[i]->id.c_str());
  }

  OnTheFlyKb kb = engine.BuildKb(docs);

  std::printf("\nOn-the-fly KB: %zu facts, %zu emerging entities\n\n", kb.size(),
              kb.emerging_entities().size());
  for (const Fact& fact : kb.facts()) {
    std::printf("%s\n", kb.FactToString(fact).c_str());
  }
  return 0;
}
