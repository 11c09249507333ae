#include "fixture.h"

#include <atomic>
#include <cstdio>
#include <thread>
#include <utility>

#include "eval/fact_matching.h"
#include "parser/router.h"
#include "service/kb_service.h"

namespace qkbfly::perfbench {

bool ParseWorkload(std::string_view name, Workload* workload) {
  if (name == "build_cold") {
    *workload = Workload::kBuildCold;
  } else if (name == "serve_zipf") {
    *workload = Workload::kServeZipf;
  } else if (name == "serve_churn") {
    *workload = Workload::kServeChurn;
  } else {
    return false;
  }
  return true;
}

int SpanLog::Begin(const char* name, int parent) {
  spans_.push_back({name, parent, clock_.ElapsedMillis(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  spans_[static_cast<size_t>(id)].end_ms = clock_.ElapsedMillis();
}

double SpanLog::SelfMs(std::string_view name) const {
  double self = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) self += s.end_ms - s.start_ms;
  }
  for (const Span& child : spans_) {
    if (child.parent >= 0 &&
        name == spans_[static_cast<size_t>(child.parent)].name) {
      self -= child.end_ms - child.start_ms;
    }
  }
  return self;
}

std::vector<double> SpanLog::DurationsMs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s.end_ms - s.start_ms);
  }
  return out;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 i, s.name, s.parent, s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

namespace {

// Six times the default world: large enough that densify dominates the
// per-document cost and BuildKb runs long enough to time thread scaling.
constexpr int kScale = 6;

DatasetConfig ScaledConfig(uint64_t seed) {
  DatasetConfig config;
  config.seed = seed;
  WorldConfig& w = config.world;
  w.seed = seed;
  for (int* count :
       {&w.actors, &w.musicians, &w.footballers, &w.coaches,
        &w.business_people, &w.directors, &w.plain_persons, &w.cities,
        &w.clubs, &w.films, &w.albums, &w.awards, &w.universities,
        &w.charities, &w.companies, &w.festivals, &w.characters}) {
    *count *= kScale;
  }
  // Every eligible entity gets an up-to-date article and every post-snapshot
  // fact a news story; wikia grows with the world.
  config.wiki_eval_articles = 1 << 20;
  config.news_docs = 1 << 20;
  config.wikia_pages *= kScale;
  config.reverb_sentences = 0;
  return config;
}

}  // namespace

std::unique_ptr<Fixture> SetUp(Workload workload, uint64_t seed) {
  WallTimer timer;
  auto fx = std::make_unique<Fixture>();
  fx->ds = BuildDataset(ScaledConfig(seed));
  const SynthDataset& ds = *fx->ds;

  for (const auto* corpus : {&ds.wiki_eval, &ds.news, &ds.wikia}) {
    for (const GoldDocument& gd : *corpus) fx->gold_by_id[gd.doc.id] = &gd;
  }
  if (workload == Workload::kBuildCold) {
    for (const auto* corpus : {&ds.wiki_eval, &ds.news, &ds.wikia}) {
      for (const GoldDocument& gd : *corpus) fx->docs.push_back(&gd.doc);
    }
  } else {
    for (const GoldDocument& gd : ds.wiki_eval) {
      (void)fx->wiki.Add(gd.doc);
      fx->titles.push_back(gd.doc.title);
    }
    for (const GoldDocument& gd : ds.news) (void)fx->news.Add(gd.doc);
    for (const Document& d : fx->wiki.all()) fx->docs.push_back(&d);
    for (const Document& d : fx->news.all()) fx->docs.push_back(&d);
    fx->search = std::make_unique<SearchEngine>(&fx->wiki, &fx->news);
  }

  EngineConfig config;
  config.num_threads = kThreads;
  fx->engine = std::make_unique<QkbflyEngine>(ds.repository.get(), &ds.patterns,
                                              &ds.stats, config);
  if (workload == Workload::kBuildCold) {
    (void)fx->engine->BuildKb(fx->docs);
  } else {
    // The serve warm-up answers every title once through a throwaway
    // service from the 4 client threads, so the heap the service tiers
    // grow into is warm as well as the memos. Default options on both
    // serve workloads: serve_churn's small doc tier would recompute
    // evicted documents and triple the cost of set-up.
    KbService service(fx->engine.get(), fx->search.get());
    std::atomic<size_t> next{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
      clients.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < fx->titles.size();) {
          (void)service.Answer(fx->titles[i]);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  fx->setup_s = timer.ElapsedSeconds();
  return fx;
}

OnTheFlyKb ComposeSerial(const Fixture& fx,
                         const std::vector<const Document*>& docs,
                         SpanLog* log, LayerCounts* counts) {
  const QkbflyEngine& engine = *fx.engine;
  const EngineConfig& config = engine.config();
  GraphBuilder builder(&engine.repository(),
                       MakeParser(config.parser_mode,
                                  config.parser_complexity_threshold),
                       config.graph);
  GreedyDensifier densifier(&engine.stats(), &engine.repository(),
                            config.params);
  std::unique_ptr<DependencyParser> parser = MakeParser(ParserMode::kLinear);

  auto begin = [log](const char* name, int parent) {
    return log != nullptr ? log->Begin(name, parent) : -1;
  };
  auto end = [log](int id) {
    if (log != nullptr) log->End(id);
  };

  OnTheFlyKb kb = engine.MakeKb();
  for (const Document* doc : docs) {
    DocumentResult r;
    int d = begin("document", -1);
    int s = begin("nlp.annotate", d);
    r.annotated = engine.nlp().Annotate(doc->id, doc->title, doc->text);
    end(s);
    s = begin("graph.build", d);
    r.graph = builder.Build(r.annotated);
    end(s);
    const size_t nodes = r.graph.node_count();
    const size_t edges = r.graph.edge_count();
    s = begin("densify", d);
    r.densified = densifier.Densify(&r.graph, r.annotated);
    end(s);
    s = begin("canon.populate", d);
    engine.PopulateKb(&kb, r);
    end(s);
    end(d);

    if (log != nullptr) {
      s = log->Begin("parser.parse");
      for (const AnnotatedSentence& sentence : r.annotated.sentences) {
        (void)parser->Parse(sentence.tokens);
      }
      log->End(s);
    }
    if (counts != nullptr) {
      ++counts->docs;
      for (const AnnotatedSentence& sentence : r.annotated.sentences) {
        counts->tokens += sentence.tokens.size();
      }
      counts->nodes += nodes;
      counts->edges += edges;
      counts->edges_removed += static_cast<size_t>(r.densified.edges_removed);
    }
  }
  return kb;
}

void JudgeKb(const Fixture& fx, const OnTheFlyKb& kb, Precision* precision) {
  FactJudge judge(fx.ds.get());
  for (const Fact& fact : kb.facts()) {
    auto it = fx.gold_by_id.find(fact.doc_id);
    bool ok = it != fx.gold_by_id.end() &&
              judge.IsCorrectFact(fact, *it->second, kb);
    ++precision->judged;
    if (ok) ++precision->correct;
  }
}

}  // namespace qkbfly::perfbench
