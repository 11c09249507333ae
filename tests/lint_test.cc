// qkbfly-lint rule coverage: for every rule a positive fixture (finding
// fires), a suppressed fixture (allow() marker honored) and a clean fixture
// (no finding). Also exercises the lexer corner cases the rules depend on
// and the baseline round-trip.
#include "lint/lint.h"

#include "lint/index.h"
#include "lint/sarif.h"
#include "lint/wholeprogram.h"

#include <gtest/gtest.h>

namespace qkbfly::lint {
namespace {

bool Has(const std::vector<Diagnostic>& diags, Rule rule) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, StripsCommentsAndStrings) {
  LexedFile f = Lex(
      "int a; // unordered_map in a comment\n"
      "const char* s = \"unordered_map in a string\";\n"
      "/* unordered_map in a block */ int b;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "unordered_map");
  }
  ASSERT_EQ(f.comments.size(), 2u);
  EXPECT_FALSE(f.comments[0].own_line);  // trails `int a;`
}

TEST(LexerTest, RawStringsDoNotLeakTokens) {
  LexedFile f = Lex("auto s = R\"(rand() \"quoted\" time(nullptr))\";\nint x;\n");
  for (const Token& t : f.tokens) {
    EXPECT_NE(t.text, "rand");
  }
  // The newline inside counts for line numbers of what follows.
  EXPECT_EQ(f.tokens.back().line, 2);
}

TEST(LexerTest, CapturesDirectivesNormalized) {
  LexedFile f = Lex("#ifndef   FOO_H_\n#define FOO_H_\n#endif\n");
  ASSERT_EQ(f.directives.size(), 3u);
  EXPECT_EQ(f.directives[0], "#ifndef FOO_H_");
  EXPECT_EQ(f.directives[1], "#define FOO_H_");
}

TEST(LexerTest, AllowMarkerCoversOwnLineAndNextLine) {
  LexedFile f = Lex(
      "// qkbfly-lint: allow(D1, C2)\n"
      "int x;\n");
  ASSERT_TRUE(f.allowed.count(1));
  ASSERT_TRUE(f.allowed.count(2));
  EXPECT_TRUE(f.allowed.at(2).count("D1"));
  EXPECT_TRUE(f.allowed.at(2).count("C2"));
  EXPECT_FALSE(f.allowed.at(2).count("D2"));
}

// ---------------------------------------------------------------------------
// D1: unordered iteration feeding output
// ---------------------------------------------------------------------------

constexpr char kD1Positive[] = R"cc(
  std::vector<int> Collect(const std::unordered_map<int, int>& m) {
    std::unordered_map<int, int> counts = m;
    std::vector<int> out;
    for (const auto& [k, v] : counts) {
      out.push_back(v);
    }
    return out;
  }
)cc";

TEST(RuleD1Test, FlagsHashOrderFillOfReturnedContainer) {
  auto diags = LintSource("src/foo/bar.cc", kD1Positive);
  ASSERT_TRUE(Has(diags, Rule::kD1)) << "expected D1";
  EXPECT_EQ(diags[0].key, "counts");
  EXPECT_NE(diags[0].message.find("fix-it"), std::string::npos);
}

TEST(RuleD1Test, SuppressedByAllowMarker) {
  std::string src = kD1Positive;
  src.replace(src.find("for (const auto&"), 3,
              "// qkbfly-lint: allow(D1)\n    for");
  EXPECT_FALSE(Has(LintSource("src/foo/bar.cc", src), Rule::kD1));
}

TEST(RuleD1Test, SortAfterLoopIsClean) {
  constexpr char kSorted[] = R"cc(
    std::vector<int> Collect(const std::unordered_map<int, int>& m) {
      std::unordered_map<int, int> counts = m;
      std::vector<int> out;
      for (const auto& [k, v] : counts) {
        out.push_back(v);
      }
      std::sort(out.begin(), out.end());
      return out;
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/foo/bar.cc", kSorted), Rule::kD1));
}

TEST(RuleD1Test, LocalUseWithoutOutputIsClean) {
  constexpr char kLocal[] = R"cc(
    int Sum(const std::unordered_map<int, int>& m) {
      std::unordered_map<int, int> counts = m;
      int total = 0;
      for (const auto& [k, v] : counts) {
        total += v;
      }
      return total;
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/foo/bar.cc", kLocal), Rule::kD1));
}

TEST(RuleD1Test, SinkCallInsideLoopFires) {
  constexpr char kSink[] = R"cc(
    void Emit(OnTheFlyKb* kb, const std::unordered_map<int, Fact>& by_key) {
      for (const auto& [k, f] : by_key) {
        kb->AddFact(f);
      }
    }
  )cc";
  EXPECT_TRUE(Has(LintSource("src/foo/bar.cc", kSink), Rule::kD1));
}

TEST(RuleD1Test, IteratorFormDetected) {
  constexpr char kIter[] = R"cc(
    std::vector<int> Keys(const std::unordered_set<int>& s) {
      std::unordered_set<int> seen = s;
      std::vector<int> out;
      for (auto it = seen.begin(); it != seen.end(); ++it) {
        out.push_back(*it);
      }
      return out;
    }
  )cc";
  EXPECT_TRUE(Has(LintSource("src/foo/bar.cc", kIter), Rule::kD1));
}

TEST(RuleD1Test, ExtraUnorderedNamesFromHeader) {
  // The member is declared unordered in the header only; the .cc iterates it.
  constexpr char kHeader[] = R"cc(
    class Repo {
      std::unordered_map<int, int> index_;
    };
  )cc";
  constexpr char kImpl[] = R"cc(
    std::vector<int> Repo::Dump() {
      std::vector<int> out;
      for (const auto& [k, v] : index_) {
        out.push_back(v);
      }
      return out;
    }
  )cc";
  LexedFile header = Lex(kHeader);
  std::vector<std::string> extra = UnorderedDeclNames(header);
  ASSERT_EQ(extra.size(), 1u);
  EXPECT_EQ(extra[0], "index_");
  EXPECT_TRUE(Has(LintSource("src/foo/repo.cc", kImpl, extra), Rule::kD1));
  EXPECT_FALSE(Has(LintSource("src/foo/repo.cc", kImpl), Rule::kD1));
}

// ---------------------------------------------------------------------------
// D2: nondeterminism sources on deterministic paths
// ---------------------------------------------------------------------------

TEST(RuleD2Test, FlagsRandomDeviceOnDeterministicPath) {
  constexpr char kSrc[] = "int Seed() { std::random_device rd; return rd(); }\n";
  EXPECT_TRUE(Has(LintSource("src/densify/foo.cc", kSrc), Rule::kD2));
}

TEST(RuleD2Test, BenchAndTestsAreExempt) {
  constexpr char kSrc[] = "int Seed() { std::random_device rd; return rd(); }\n";
  EXPECT_FALSE(Has(LintSource("bench/foo.cc", kSrc), Rule::kD2));
  EXPECT_FALSE(Has(LintSource("tests/foo_test.cc", kSrc), Rule::kD2));
  EXPECT_FALSE(Has(LintSource("src/synth/dataset.cc", kSrc), Rule::kD2));
}

TEST(RuleD2Test, FlagsWallClockAndAddressAsHash) {
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "auto t = std::chrono::system_clock::now();\n"),
      Rule::kD2));
  EXPECT_TRUE(Has(LintSource("src/a.cc", "long x = time(nullptr);\n"),
                  Rule::kD2));
  EXPECT_TRUE(Has(
      LintSource("src/a.cc",
                 "size_t h = reinterpret_cast<uintptr_t>(ptr);\n"),
      Rule::kD2));
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "std::hash<Node*> hasher;\n"), Rule::kD2));
}

TEST(RuleD2Test, SuppressedByAllowMarker) {
  constexpr char kSrc[] =
      "// timing is presentation-only. qkbfly-lint: allow(D2)\n"
      "auto t = std::chrono::steady_clock::now();\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kD2));
}

TEST(RuleD2Test, SeededRngIsClean) {
  constexpr char kSrc[] =
      "uint64_t Next(Rng* rng) { return rng->NextUint64(); }\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kD2));
}

// ---------------------------------------------------------------------------
// C1: unguarded mutable static state
// ---------------------------------------------------------------------------

TEST(RuleC1Test, FlagsMutableNamespaceScopeVariable) {
  auto diags = LintSource("src/a.cc", "namespace q {\nint g_counter = 0;\n}\n");
  ASSERT_TRUE(Has(diags, Rule::kC1));
  EXPECT_EQ(diags[0].key, "g_counter");
}

TEST(RuleC1Test, FlagsMutableStaticLocal) {
  constexpr char kSrc[] =
      "int Next() {\n  static int counter = 0;\n  return ++counter;\n}\n";
  EXPECT_TRUE(Has(LintSource("src/a.cc", kSrc), Rule::kC1));
}

TEST(RuleC1Test, GuardedAndConstShapesAreClean) {
  constexpr char kSrc[] = R"cc(
    namespace q {
    const int kLimit = 10;
    constexpr double kScale = 1.5;
    std::atomic<int> g_guarded{0};
    std::mutex g_mutex;
    }  // namespace q
    int F() {
      static const int kTable = 3;
      static std::once_flag flag;
      return kTable;
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kC1));
}

TEST(RuleC1Test, LeakySingletonInternerShapeIsAllowed) {
  constexpr char kSrc[] = R"cc(
    TokenSymbols& Get() {
      static TokenSymbols* table = new TokenSymbols();
      return *table;
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kC1));
}

TEST(RuleC1Test, SuppressedByAllowMarker) {
  constexpr char kSrc[] =
      "// set once in main before threads. qkbfly-lint: allow(C1)\n"
      "bool g_flag = false;\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kC1));
}

// ---------------------------------------------------------------------------
// C2: thread hygiene and lock order
// ---------------------------------------------------------------------------

TEST(RuleC2Test, FlagsDetachAndRawNewThread) {
  EXPECT_TRUE(Has(LintSource("src/a.cc", "void F(std::thread& t) { t.detach(); }\n"),
                  Rule::kC2));
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "auto* t = new std::thread([] {});\n"),
      Rule::kC2));
}

TEST(RuleC2Test, FlagsLockOrderInversion) {
  // metrics (rank 5) held while acquiring a doc-tier shard mutex (rank 3).
  constexpr char kSrc[] = R"cc(
    void Report() {
      std::lock_guard<std::mutex> m(metrics_mutex_);
      std::lock_guard<std::mutex> s(shard.mutex);
    }
  )cc";
  auto diags = LintSource("src/service/a.cc", kSrc);
  ASSERT_TRUE(Has(diags, Rule::kC2));
  EXPECT_NE(diags[0].message.find("lock order"), std::string::npos);
}

TEST(RuleC2Test, DocumentedOrderIsClean) {
  // The full documented chain, outer to inner: query tier (2) -> doc tier
  // (3) -> store shard (4) -> metrics (5).
  constexpr char kSrc[] = R"cc(
    void Report() {
      std::lock_guard<std::mutex> q(qshard.mutex);
      std::lock_guard<std::mutex> s(shard.mutex);
      std::lock_guard<std::mutex> f(store_shard.mutex);
      std::lock_guard<std::mutex> m(metrics_mutex_);
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/service/a.cc", kSrc), Rule::kC2));
}

TEST(RuleC2Test, FlagsQueryTierAcquiredUnderDocTier) {
  // doc-tier shard (rank 3) held while acquiring a query-tier shard (rank
  // 2): the tiers nest the wrong way around.
  constexpr char kSrc[] = R"cc(
    void Serve() {
      std::lock_guard<std::mutex> s(shard.mutex);
      std::lock_guard<std::mutex> q(qshard.mutex);
    }
  )cc";
  EXPECT_TRUE(Has(LintSource("src/store/a.cc", kSrc), Rule::kC2));
}

TEST(RuleC2Test, FlagsDocTierAcquiredUnderStoreShard) {
  // FactStore shard (rank 4) held while acquiring a doc-tier shard (rank 3).
  constexpr char kSrc[] = R"cc(
    void Ingest() {
      std::lock_guard<std::mutex> f(store_shard.mutex);
      std::lock_guard<std::mutex> s(shard.mutex);
    }
  )cc";
  EXPECT_TRUE(Has(LintSource("src/store/a.cc", kSrc), Rule::kC2));
}

TEST(RuleC2Test, FlagsInversionInClassTemplateMember) {
  // The memo shard locks live only in a class template's in-class members
  // (memo::ShardedLru); the pass must still see them.
  constexpr char kSrc[] = R"cc(
    template <typename Value>
    class Memo {
     public:
      template <typename Compute>
      std::shared_ptr<const Value> Fetch(const Compute& compute) {
        std::lock_guard<std::mutex> f(store_shard.mutex);
        std::lock_guard<std::mutex> s(shard.mutex);
        return nullptr;
      }
    };
  )cc";
  EXPECT_TRUE(Has(LintSource("src/memo/a.h", kSrc), Rule::kC2));
}

TEST(RuleC2Test, ScopeExitReleasesHeldLocks) {
  // The shard lock dies with its block, so the later metrics->shard sequence
  // in a sibling block is NOT an inversion.
  constexpr char kSrc[] = R"cc(
    void Report() {
      {
        std::lock_guard<std::mutex> m(metrics_mutex_);
      }
      std::lock_guard<std::mutex> s(shard.mutex);
    }
  )cc";
  EXPECT_FALSE(Has(LintSource("src/service/a.cc", kSrc), Rule::kC2));
}

TEST(RuleC2Test, SuppressedByAllowMarker) {
  constexpr char kSrc[] =
      "void F(std::thread& t) {\n"
      "  t.detach();  // qkbfly-lint: allow(C2)\n"
      "}\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kC2));
}

// ---------------------------------------------------------------------------
// H1: header hygiene
// ---------------------------------------------------------------------------

TEST(RuleH1Test, FlagsHeaderWithoutGuard) {
  constexpr char kSrc[] = "#include <vector>\nint f();\n";
  EXPECT_TRUE(Has(LintSource("src/a.h", kSrc), Rule::kH1));
}

TEST(RuleH1Test, GuardedHeadersAreClean) {
  EXPECT_FALSE(Has(LintSource("src/a.h",
                              "// comment first is fine\n"
                              "#ifndef QKBFLY_A_H_\n#define QKBFLY_A_H_\n"
                              "int f();\n#endif\n"),
                   Rule::kH1));
  EXPECT_FALSE(
      Has(LintSource("src/a.h", "#pragma once\nint f();\n"), Rule::kH1));
}

TEST(RuleH1Test, FlagsUntaggedTodoAndAcceptsTagged) {
  EXPECT_TRUE(Has(LintSource("src/a.cc", "// TODO: fix this later\n"),
                  Rule::kH1));
  EXPECT_TRUE(Has(LintSource("src/a.cc", "// FIXME this is broken\n"),
                  Rule::kH1));
  EXPECT_FALSE(Has(LintSource("src/a.cc", "// TODO(#42): fix this later\n"),
                   Rule::kH1));
  EXPECT_FALSE(Has(LintSource("src/a.cc", "// FIXME(owner): handle nulls\n"),
                   Rule::kH1));
}

TEST(RuleH1Test, CcFilesNeedNoGuard) {
  EXPECT_FALSE(
      Has(LintSource("src/a.cc", "#include <vector>\nint f() { return 1; }\n"),
          Rule::kH1));
}

// ---------------------------------------------------------------------------
// O1: metric/span names must be snake_case string literals
// ---------------------------------------------------------------------------

TEST(RuleO1Test, FlagsRuntimeComputedMetricName) {
  constexpr char kSrc[] =
      "void f(MetricsRegistry* r, const std::string& shard) {\n"
      "  r->GetCounter(\"cache_hits_\" + shard);\n"
      "}\n";
  auto diags = LintSource("src/a.cc", kSrc);
  ASSERT_TRUE(Has(diags, Rule::kO1));
  EXPECT_EQ(diags[0].key, "GetCounter/\"cache_hits_\"");
}

TEST(RuleO1Test, FlagsNonSnakeCaseLiteral) {
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "auto* c = r->GetCounter(\"CacheHits\");\n"),
      Rule::kO1));
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "auto* g = r->GetGauge(\"resident-bytes\");\n"),
      Rule::kO1));
  EXPECT_TRUE(
      Has(LintSource("src/a.cc", "trace->StartSpan(name_variable);\n"),
          Rule::kO1));
}

TEST(RuleO1Test, ScopedSpanNameIsSecondArgument) {
  // Both the expression form and the `ScopedSpan var(...)` declaration form.
  EXPECT_TRUE(Has(
      LintSource("src/a.cc", "obs::ScopedSpan span(ctx, MakeName(doc));\n"),
      Rule::kO1));
  EXPECT_TRUE(
      Has(LintSource("src/a.cc", "auto s = obs::ScopedSpan(ctx, \"Bad\");\n"),
          Rule::kO1));
  EXPECT_FALSE(Has(
      LintSource("src/a.cc", "obs::ScopedSpan span(ctx, \"graph_build\");\n"),
      Rule::kO1));
}

TEST(RuleO1Test, SnakeCaseLiteralsAndDeclarationsAreClean) {
  constexpr char kSrc[] =
      "Counter* GetCounter(const std::string& name, std::string help);\n"
      "void f(MetricsRegistry* r, Trace* t, TraceContext ctx) {\n"
      "  r->GetCounter(\"pipeline_documents_total\");\n"
      "  r->GetHistogram(\"service_answer_seconds\", \"query latency\");\n"
      "  t->StartSpan(\"fetch_or_compute\", parent);\n"
      "}\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kO1));
}

TEST(RuleO1Test, ParserRoutingCounterNamesAreClean) {
  // The adaptive parser's routing counters (src/parser/router.cc) follow
  // the literal snake_case convention; a backend-computed name does not.
  constexpr char kClean[] =
      "void f(MetricsRegistry* r) {\n"
      "  r->GetCounter(\"parser_route_linear_total\");\n"
      "  r->GetCounter(\"parser_route_mst_total\", \"routed sentences\");\n"
      "}\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kClean), Rule::kO1));
  constexpr char kComputed[] =
      "void f(MetricsRegistry* r, const std::string& backend) {\n"
      "  r->GetCounter(\"parser_route_\" + backend + \"_total\");\n"
      "}\n";
  EXPECT_TRUE(Has(LintSource("src/a.cc", kComputed), Rule::kO1));
}

TEST(RuleO1Test, SuppressedByAllowMarker) {
  constexpr char kSrc[] =
      "// qkbfly-lint: allow(O1)\n"
      "id_ = trace_->StartSpan(name, context.parent);\n";
  EXPECT_FALSE(Has(LintSource("src/a.cc", kSrc), Rule::kO1));
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(BaselineTest, RoundTripAndPartition) {
  auto diags = LintSource("src/foo/bar.cc", kD1Positive);
  ASSERT_TRUE(Has(diags, Rule::kD1));
  std::string entry = FormatBaselineEntry(diags[0]);
  EXPECT_EQ(entry, "D1|src/foo/bar.cc|counts");

  std::string file = "# comment line\n\n" + entry + "\nC2|gone.cc|detach\n";
  std::vector<BaselineEntry> baseline = ParseBaseline(file);
  ASSERT_EQ(baseline.size(), 2u);

  BaselineResult result = ApplyBaseline(diags, baseline);
  EXPECT_TRUE(result.fresh.empty());
  EXPECT_EQ(result.suppressed.size(), diags.size());
  ASSERT_EQ(result.unused.size(), 1u);  // the stale gone.cc entry
  EXPECT_EQ(result.unused[0].file, "gone.cc");
}

TEST(BaselineTest, UnmatchedDiagnosticStaysFresh) {
  auto diags = LintSource("src/foo/bar.cc", kD1Positive);
  BaselineResult result = ApplyBaseline(diags, {});
  EXPECT_EQ(result.fresh.size(), diags.size());
  EXPECT_TRUE(result.suppressed.empty());
}

TEST(RenderTest, FormatsFileLineRule) {
  Diagnostic d;
  d.rule = Rule::kD2;
  d.file = "src/a.cc";
  d.line = 7;
  d.message = "msg";
  EXPECT_EQ(Render(d), "src/a.cc:7: D2: msg");
}


// ---------------------------------------------------------------------------
// Whole-program: project index
// ---------------------------------------------------------------------------

ProjectIndex BuildIndex(
    const std::vector<std::pair<std::string, std::string>>& files) {
  ProjectIndexBuilder builder;
  for (const auto& [path, source] : files) builder.AddFile(path, source);
  return builder.Build();
}

bool HasKey(const std::vector<Diagnostic>& diags, Rule rule,
            std::string_view key_fragment) {
  for (const Diagnostic& d : diags) {
    if (d.rule == rule && d.key.find(key_fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ProjectIndexTest, ScopedLockMultiMutexExtractsGroupedSites) {
  ProjectIndex index = BuildIndex({{"src/x/cache.cc", R"cc(
    void DocumentResultCache::Evict() {
      std::scoped_lock guard(mu_a_, mu_b_);
      Touch();
    }
  )cc"}});
  ASSERT_EQ(index.functions.size(), 1u);
  const IndexedFunction& fn = index.functions[0];
  EXPECT_EQ(fn.qualified, "DocumentResultCache::Evict");
  ASSERT_EQ(fn.locks.size(), 2u);
  EXPECT_EQ(fn.locks[0].node, "DocumentResultCache::mu_a_");
  EXPECT_EQ(fn.locks[1].node, "DocumentResultCache::mu_b_");
  // Atomic multi-mutex acquisition: one group, no intra-group order edges.
  EXPECT_EQ(fn.locks[0].group, fn.locks[1].group);
  EXPECT_GE(fn.locks[0].group, 0);
  EXPECT_TRUE(fn.lock_edges.empty());
  // Both mutexes count as held at the call that follows.
  ASSERT_EQ(fn.calls.size(), 1u);
  EXPECT_EQ(fn.calls[0].held.size(), 2u);
}

TEST(ProjectIndexTest, SequentialGuardsProduceOrderEdge) {
  ProjectIndex index = BuildIndex({{"src/x/one.cc", R"cc(
    void TakeBoth() {
      std::lock_guard<std::mutex> g1(mu_a);
      std::lock_guard<std::mutex> g2(mu_b);
    }
  )cc"}});
  ASSERT_EQ(index.functions.size(), 1u);
  const IndexedFunction& fn = index.functions[0];
  ASSERT_EQ(fn.lock_edges.size(), 1u);
  EXPECT_EQ(fn.lock_edges[0].outer, "x::mu_a");
  EXPECT_EQ(fn.lock_edges[0].inner, "x::mu_b");
}

TEST(ProjectIndexTest, ResolvesIncludesBySuffixAndAssignsModules) {
  ProjectIndex index = BuildIndex({
      {"src/util/arena.h", "int a;\n"},
      {"src/graph/graph.h", "#include \"util/arena.h\"\nint g;\n"},
  });
  const IndexedFile* graph = index.FindFile("src/graph/graph.h");
  ASSERT_NE(graph, nullptr);
  EXPECT_EQ(graph->module, "graph");
  ASSERT_EQ(graph->includes.size(), 1u);
  EXPECT_EQ(graph->includes[0].resolved, "src/util/arena.h");
}

// ---------------------------------------------------------------------------
// L1: layering and include cycles
// ---------------------------------------------------------------------------

LayerConfig TwoLayers() {
  LayerConfig layers;
  std::string error;
  EXPECT_TRUE(ParseLayerConfig("layer util\nlayer core\n", &layers, &error))
      << error;
  return layers;
}

TEST(RuleL1Test, FlagsLayerBackEdge) {
  ProjectIndex index = BuildIndex({
      {"src/core/c.h", "int c;\n"},
      {"src/util/u.h", "#include \"core/c.h\"\nint u;\n"},
  });
  auto diags = CheckLayering(index, TwoLayers());
  ASSERT_TRUE(HasKey(diags, Rule::kL1, "util->core"));
}

TEST(RuleL1Test, DownwardAndSameRankIncludesAreClean) {
  LayerConfig layers;
  std::string error;
  ASSERT_TRUE(
      ParseLayerConfig("layer util\nlayer graph corpus\nlayer core\n",
                       &layers, &error));
  ProjectIndex index = BuildIndex({
      {"src/util/u.h", "int u;\n"},
      {"src/graph/g.h", "#include \"util/u.h\"\n#include \"corpus/x.h\"\n"},
      {"src/corpus/x.h", "int x;\n"},
      {"src/core/c.cc", "#include \"graph/g.h\"\nint c;\n"},
  });
  EXPECT_TRUE(CheckLayering(index, layers).empty());
}

TEST(RuleL1Test, BackEdgeSuppressedByAllowMarker) {
  ProjectIndex index = BuildIndex({
      {"src/core/c.h", "int c;\n"},
      {"src/util/u.h",
       "// qkbfly-lint: allow(L1)\n#include \"core/c.h\"\nint u;\n"},
  });
  EXPECT_TRUE(CheckLayering(index, TwoLayers()).empty());
}

TEST(RuleL1Test, FlagsModuleMissingFromConfig) {
  ProjectIndex index = BuildIndex({{"src/zzz/f.h", "int f;\n"}});
  auto diags = CheckLayering(index, TwoLayers());
  ASSERT_TRUE(HasKey(diags, Rule::kL1, "module-zzz"));
}

TEST(RuleL1Test, FlagsIncludeCycle) {
  ProjectIndex index = BuildIndex({
      {"src/a/x.h", "#include \"a/y.h\"\nint x;\n"},
      {"src/a/y.h", "#include \"a/x.h\"\nint y;\n"},
  });
  auto diags = CheckIncludeCycles(index);
  ASSERT_EQ(diags.size(), 1u);  // one canonical report per cycle
  EXPECT_TRUE(HasKey(diags, Rule::kL1, "src/a/x.h -> src/a/y.h -> src/a/x.h"));
}

TEST(RuleL1Test, AcyclicIncludesAreClean) {
  ProjectIndex index = BuildIndex({
      {"src/a/x.h", "#include \"a/y.h\"\nint x;\n"},
      {"src/a/y.h", "int y;\n"},
  });
  EXPECT_TRUE(CheckIncludeCycles(index).empty());
}

TEST(LayerConfigTest, ParsesCommentsBlanksAndSharedRanks) {
  LayerConfig layers;
  std::string error;
  ASSERT_TRUE(ParseLayerConfig(
      "# comment\n\nlayer util\nlayer graph corpus  # trailing\nlayer core\n",
      &layers, &error))
      << error;
  EXPECT_EQ(layers.rank.at("util"), 0);
  EXPECT_EQ(layers.rank.at("graph"), 1);
  EXPECT_EQ(layers.rank.at("corpus"), 1);
  EXPECT_EQ(layers.rank.at("core"), 2);
}

TEST(LayerConfigTest, RejectsMalformedAndDuplicateLines) {
  LayerConfig layers;
  std::string error;
  EXPECT_FALSE(ParseLayerConfig("tier util\n", &layers, &error));
  EXPECT_FALSE(error.empty());
  error.clear();
  EXPECT_FALSE(ParseLayerConfig("layer util\nlayer util\n", &layers, &error));
  EXPECT_NE(error.find("twice"), std::string::npos);
  EXPECT_FALSE(ParseLayerConfig("", &layers, &error));
}

// ---------------------------------------------------------------------------
// C3: inferred whole-program lock order
// ---------------------------------------------------------------------------

constexpr char kInversionOne[] = R"cc(
  void LockB() { std::lock_guard<std::mutex> g(mu_b); }
  void AThenB() {
    std::lock_guard<std::mutex> g(mu_a);
    LockB();
  }
)cc";

constexpr char kInversionTwo[] = R"cc(
  void LockA() { std::lock_guard<std::mutex> g(mu_a); }
  void BThenA() {
    std::lock_guard<std::mutex> g(mu_b);
    LockA();
  }
)cc";

TEST(RuleC3Test, FlagsCrossFunctionInversionInvisibleToC2) {
  // Neither file names a rank-classified mutex, so the per-file C2 pass sees
  // nothing in either one...
  EXPECT_FALSE(Has(LintSource("src/x/one.cc", kInversionOne), Rule::kC2));
  EXPECT_FALSE(Has(LintSource("src/x/two.cc", kInversionTwo), Rule::kC2));
  // ...but the whole-program graph has mu_a -> mu_b (via AThenB -> LockB)
  // and mu_b -> mu_a (via BThenA -> LockA): a deadlock-shaped cycle.
  ProjectIndex index = BuildIndex(
      {{"src/x/one.cc", kInversionOne}, {"src/x/two.cc", kInversionTwo}});
  auto diags = CheckLockOrder(index);
  ASSERT_TRUE(HasKey(diags, Rule::kC3, "x::mu_a -> x::mu_b -> x::mu_a"));
}

TEST(RuleC3Test, FlagsRankContradiction) {
  // Acquiring a query-tier (rank 2) mutex while holding a store (rank 4)
  // mutex contradicts the documented order even without a cycle.
  ProjectIndex index = BuildIndex({{"src/store/fact_store.cc", R"cc(
    void FactStore::Write() {
      std::lock_guard<std::mutex> g(store_mu_);
      std::lock_guard<std::mutex> h(query_mu_);
    }
  )cc"}});
  auto diags = CheckLockOrder(index);
  ASSERT_TRUE(HasKey(diags, Rule::kC3,
                     "FactStore::store_mu_->FactStore::query_mu_"));
}

TEST(RuleC3Test, DocumentedOrderAndScopedLockGroupsAreClean) {
  ProjectIndex index = BuildIndex({{"src/core/pipeline.cc", R"cc(
    void Pipeline::Run() {
      std::lock_guard<std::mutex> g(query_mu_);
      std::lock_guard<std::mutex> h(store_mu_);
      std::lock_guard<std::mutex> m(metrics_mu_);
    }
    void Pipeline::Evict() {
      std::scoped_lock both(store_mu_, query_mu_);
    }
  )cc"}});
  EXPECT_TRUE(CheckLockOrder(index).empty());
}

TEST(RuleC3Test, SuppressedByAllowMarker) {
  ProjectIndex index = BuildIndex({{"src/store/fact_store.cc", R"cc(
    void FactStore::Write() {
      std::lock_guard<std::mutex> g(store_mu_);
      // qkbfly-lint: allow(C3)
      std::lock_guard<std::mutex> h(query_mu_);
    }
  )cc"}});
  EXPECT_TRUE(CheckLockOrder(index).empty());
}

// ---------------------------------------------------------------------------
// A1: hot-path allocation
// ---------------------------------------------------------------------------

TEST(RuleA1Test, FlagsAllocationReachableFromDensify) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void Helper() { buf.push_back(1); }
    void GreedyDensifier::Densify() { Helper(); }
  )cc"}});
  auto diags = CheckHotPathAlloc(index, DefaultHotPathRoots());
  ASSERT_TRUE(HasKey(diags, Rule::kA1, "Helper/push_back"));
}

TEST(RuleA1Test, AllowOnCallLineIsReachabilityBarrier) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void Helper() { buf.push_back(1); }
    void GreedyDensifier::Densify() {
      // qkbfly-lint: allow(A1)
      Helper();
    }
  )cc"}});
  EXPECT_TRUE(CheckHotPathAlloc(index, DefaultHotPathRoots()).empty());
}

TEST(RuleA1Test, SuppressedAtTheAllocationSite) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void GreedyDensifier::Densify() {
      // qkbfly-lint: allow(A1)
      scratch.push_back(1);
    }
  )cc"}});
  EXPECT_TRUE(CheckHotPathAlloc(index, DefaultHotPathRoots()).empty());
}

TEST(RuleA1Test, WorkspaceAndOutParamGrowthIsExempt) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void GreedyDensifier::Densify() {
      ws->adj_data.push_back(1);
      result->removal_order.push_back(2);
      auto& lane = ws_->lanes;
      lane.resize(8);
    }
  )cc"}});
  EXPECT_TRUE(CheckHotPathAlloc(index, DefaultHotPathRoots()).empty());
}

TEST(RuleA1Test, OperatorNewAndMakeUniqueAreFlagged) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void GreedyDensifier::Densify() {
      auto* p = new int(3);
      auto q = std::make_unique<int>(4);
    }
  )cc"}});
  auto diags = CheckHotPathAlloc(index, DefaultHotPathRoots());
  EXPECT_TRUE(HasKey(diags, Rule::kA1, "Densify/new"));
  EXPECT_TRUE(HasKey(diags, Rule::kA1, "Densify/make_unique"));
}

TEST(RuleA1Test, UnreachableAllocationIsClean) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void ColdSetup() { buf.push_back(1); }
    void GreedyDensifier::Densify() { Trim(); }
  )cc"}});
  EXPECT_TRUE(CheckHotPathAlloc(index, DefaultHotPathRoots()).empty());
}

// ---------------------------------------------------------------------------
// SARIF export
// ---------------------------------------------------------------------------

TEST(SarifTest, EmittedReportValidates) {
  Diagnostic d;
  d.rule = Rule::kL1;
  d.file = "src/util/u.h";
  d.line = 3;
  d.key = "util->core";
  d.message = "back-edge with \"quotes\" and\nnewline";
  std::string sarif = SarifReport({d});
  std::string error;
  EXPECT_TRUE(ValidateSarif(sarif, &error)) << error;
  EXPECT_NE(sarif.find("\"ruleId\": \"L1\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
}

TEST(SarifTest, EmptyReportValidates) {
  std::string sarif = SarifReport({});
  std::string error;
  EXPECT_TRUE(ValidateSarif(sarif, &error)) << error;
}

TEST(SarifTest, RejectsCorruptJsonAndContractViolations) {
  std::string error;
  EXPECT_FALSE(ValidateSarif("{ \"version\": \"2.1.0\", ", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ValidateSarif("{\"version\": \"1.0\", \"runs\": []}", &error));
  EXPECT_FALSE(ValidateSarif("{\"version\": \"2.1.0\", \"runs\": []}", &error));
  // Unknown ruleId.
  EXPECT_FALSE(ValidateSarif(
      "{\"version\": \"2.1.0\", \"runs\": [{\"tool\": {\"driver\": {\"name\": "
      "\"x\"}}, \"results\": [{\"ruleId\": \"Z9\", \"message\": {\"text\": "
      "\"m\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
      "{\"uri\": \"f\"}, \"region\": {\"startLine\": 1}}}]}]}]}",
      &error));
  EXPECT_NE(error.find("Z9"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Baseline file formatting
// ---------------------------------------------------------------------------

TEST(BaselineTest, FormatBaselineFileSortsAndDedupes) {
  Diagnostic d1, d2, d3;
  d1.rule = Rule::kL1;
  d1.file = "src/b.h";
  d1.key = "k";
  d2.rule = Rule::kA1;
  d2.file = "src/a.cc";
  d2.key = "f/new";
  d3 = d1;  // duplicate collapses
  std::string text = FormatBaselineFile({d1, d2, d3});
  size_t a1 = text.find("A1|src/a.cc|f/new");
  size_t l1 = text.find("L1|src/b.h|k");
  ASSERT_NE(a1, std::string::npos);
  ASSERT_NE(l1, std::string::npos);
  EXPECT_LT(a1, l1);  // rule-major field order
  EXPECT_EQ(text.find("L1|src/b.h|k", l1 + 1), std::string::npos);
  EXPECT_EQ(text.front(), '#');  // policy header survives
}

}  // namespace
}  // namespace qkbfly::lint
