// qkbfly-lint rule coverage: for every rule a positive fixture (finding
// fires), a suppressed fixture (allow() marker honored) and a clean fixture
// (no finding). Also exercises the lexer corner cases the rules depend on.
#include "lint/lint.h"

#include "lint/index.h"
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

TEST(LexerTest, AllowMarkerCoversOwnLineAndNextLine) {
  LexedFile f = Lex(
      "// qkbfly-lint: allow(D1, C3)\n"
      "int x;\n");
  ASSERT_TRUE(f.allowed.count(1));
  ASSERT_TRUE(f.allowed.count(2));
  EXPECT_TRUE(f.allowed.at(2).count("D1"));
  EXPECT_TRUE(f.allowed.at(2).count("C3"));
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
  // Atomic multi-mutex acquisition: no order edges between its members.
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

TEST(ProjectIndexTest, ArrowAndDotSpellingsFoldToOneNode) {
  // Two methods of one class reach the same per-shard mutex through a
  // reference and a pointer; a differently named chain stays its own node.
  ProjectIndex index = BuildIndex({{"src/memo/sharded_lru.h", R"cc(
    class ShardedLru {
     public:
      void Fetch() { std::lock_guard<std::mutex> lock(shard.mutex); }
      void Clear() { std::lock_guard<std::mutex> lock(shard->mutex); }
      void Save() { std::lock_guard<std::mutex> lock(store_shard.mutex); }
    };
  )cc"}});
  ASSERT_EQ(index.functions.size(), 3u);
  ASSERT_EQ(index.functions[0].locks.size(), 1u);
  ASSERT_EQ(index.functions[1].locks.size(), 1u);
  ASSERT_EQ(index.functions[2].locks.size(), 1u);
  EXPECT_EQ(index.functions[0].locks[0].node, "ShardedLru::shard.mutex");
  EXPECT_EQ(index.functions[1].locks[0].node, "ShardedLru::shard.mutex");
  EXPECT_EQ(index.functions[2].locks[0].node,
            "ShardedLru::store_shard.mutex");
}

TEST(ProjectIndexTest, NamesDestructorsAfterTilde) {
  ProjectIndex index = BuildIndex({{"src/util/thread_pool.cc", R"cc(
    ThreadPool::ThreadPool(int n) { Start(n); }
    ThreadPool::~ThreadPool() {
      std::lock_guard<std::mutex> lock(mutex_);
    }
    class Arena {
     public:
      ~Arena() { Release(); }
    };
  )cc"}});
  ASSERT_EQ(index.functions.size(), 3u);
  EXPECT_EQ(index.functions[1].name, "~ThreadPool");
  EXPECT_EQ(index.functions[1].qualified, "ThreadPool::~ThreadPool");
  ASSERT_EQ(index.functions[1].locks.size(), 1u);
  EXPECT_EQ(index.functions[1].locks[0].node, "ThreadPool::mutex_");
  EXPECT_EQ(index.functions[2].name, "~Arena");
  EXPECT_EQ(index.functions[2].qualified, "Arena::~Arena");
  // A bare `ThreadPool(` call resolves to the constructor alone.
  EXPECT_EQ(index.functions_by_name.at("ThreadPool").size(), 1u);
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

LayerConfig TwoLayers() { return LayerConfig{{{"util", 0}, {"core", 1}}}; }

TEST(RuleL1Test, FlagsLayerBackEdge) {
  ProjectIndex index = BuildIndex({
      {"src/core/c.h", "int c;\n"},
      {"src/util/u.h", "#include \"core/c.h\"\nint u;\n"},
  });
  auto diags = CheckLayering(index, TwoLayers());
  ASSERT_TRUE(HasKey(diags, Rule::kL1, "util->core"));
}

TEST(RuleL1Test, DownwardAndSameRankIncludesAreClean) {
  const LayerConfig layers{{{"util", 0}, {"graph", 1}, {"corpus", 1},
                           {"core", 2}}};
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

TEST(RuleL1Test, ProjectLayersRankUtilLowestAndServiceHighest) {
  const LayerConfig& layers = ProjectLayers();
  EXPECT_EQ(layers.rank.size(), 23u);
  EXPECT_EQ(layers.rank.at("util"), 0);
  EXPECT_EQ(layers.rank.at("obs"), layers.rank.at("text"));
  EXPECT_LT(layers.rank.at("graph"), layers.rank.at("densify"));
  EXPECT_EQ(layers.rank.at("service"), 14);
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

TEST(RuleC3Test, FlagsCrossFunctionInversion) {
  // Neither file names a rank-classified mutex and neither function nests
  // two locks, but the whole-program graph has mu_a -> mu_b (via AThenB ->
  // LockB) and mu_b -> mu_a (via BThenA -> LockA): a deadlock-shaped cycle.
  ProjectIndex index = BuildIndex(
      {{"src/x/one.cc", kInversionOne}, {"src/x/two.cc", kInversionTwo}});
  auto diags = CheckLockOrder(index);
  ASSERT_TRUE(HasKey(diags, Rule::kC3, "x::mu_a -> x::mu_b -> x::mu_a"));
}

TEST(RuleC3Test, FlagsLockOrderInversion) {
  // metrics (rank 5) held while acquiring a doc-tier shard mutex (rank 3).
  constexpr char kSrc[] = R"cc(
    void Report() {
      std::lock_guard<std::mutex> m(metrics_mutex_);
      std::lock_guard<std::mutex> s(shard.mutex);
    }
  )cc";
  auto diags = CheckLockOrder(BuildIndex({{"src/service/a.cc", kSrc}}));
  ASSERT_TRUE(Has(diags, Rule::kC3));
  EXPECT_NE(diags[0].message.find("lock order"), std::string::npos);
}

TEST(RuleC3Test, DocumentedOrderIsClean) {
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
  EXPECT_FALSE(
      Has(CheckLockOrder(BuildIndex({{"src/service/a.cc", kSrc}})), Rule::kC3));
}

TEST(RuleC3Test, FlagsQueryTierAcquiredUnderDocTier) {
  // doc-tier shard (rank 3) held while acquiring a query-tier shard (rank
  // 2): the tiers nest the wrong way around.
  constexpr char kSrc[] = R"cc(
    void Serve() {
      std::lock_guard<std::mutex> s(shard.mutex);
      std::lock_guard<std::mutex> q(qshard.mutex);
    }
  )cc";
  EXPECT_TRUE(
      Has(CheckLockOrder(BuildIndex({{"src/store/a.cc", kSrc}})), Rule::kC3));
}

TEST(RuleC3Test, FlagsDocTierAcquiredUnderStoreShard) {
  // FactStore shard (rank 4) held while acquiring a doc-tier shard (rank 3).
  constexpr char kSrc[] = R"cc(
    void Ingest() {
      std::lock_guard<std::mutex> f(store_shard.mutex);
      std::lock_guard<std::mutex> s(shard.mutex);
    }
  )cc";
  EXPECT_TRUE(
      Has(CheckLockOrder(BuildIndex({{"src/store/a.cc", kSrc}})), Rule::kC3));
}

TEST(RuleC3Test, FlagsInversionInClassTemplateMember) {
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
  EXPECT_TRUE(
      Has(CheckLockOrder(BuildIndex({{"src/memo/a.h", kSrc}})), Rule::kC3));
}

TEST(RuleC3Test, ScopeExitReleasesHeldLocks) {
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
  EXPECT_FALSE(
      Has(CheckLockOrder(BuildIndex({{"src/service/a.cc", kSrc}})), Rule::kC3));
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

TEST(RuleC3Test, FlagsCrossFunctionRankContradiction) {
  // FactStore::Ingest holds its store shard (rank 4) and calls a memo
  // method that takes a memo shard lock (rank 3): the inversion spans two
  // functions in two files.
  ProjectIndex index = BuildIndex({
      {"src/memo/sharded_lru.h", R"cc(
        template <typename Value>
        class ShardedLru {
         public:
          void Touch(const std::string& key) {
            std::lock_guard<std::mutex> lock(shard.mutex);
          }
        };
      )cc"},
      {"src/store/fact_store.cc", R"cc(
        void FactStore::Ingest(const std::string& key) {
          std::lock_guard<std::mutex> lock(store_shard.mutex);
          memo_.Touch(key);
        }
      )cc"},
  });
  auto diags = CheckLockOrder(index);
  ASSERT_TRUE(HasKey(diags, Rule::kC3,
                     "FactStore::store_shard.mutex->ShardedLru::shard.mutex"));
}

// Clear() is a method of two classes, so the bare name alone cannot pick the
// callee. The receiver's declared type (a member of an alias of the memo)
// resolves `answers_.Clear()` under the store shard to the memo's Clear; a
// receiver of the other class stays off the memo, and a receiver whose type
// the index cannot know resolves to every Clear that takes a lock.
constexpr char kSharedNameMemo[] = R"cc(
  template <typename Value>
  class ShardedLru {
   public:
    void Clear() { std::lock_guard<std::mutex> lock(shard.mutex); }
  };
  using QueryKbCache = memo::ShardedLru<QaPair>;
)cc";

constexpr char kSharedNameOther[] = R"cc(
  class Gauge {
   public:
    void Clear() { std::lock_guard<std::mutex> lock(metrics_mu_); }
  };
)cc";

TEST(RuleC3Test, FlagsInversionThroughSharedNameMethod) {
  ProjectIndex index = BuildIndex({
      {"src/memo/sharded_lru.h", kSharedNameMemo},
      {"src/obs/gauge.h", kSharedNameOther},
      {"src/store/fact_store.h", R"cc(
        class FactStore {
         private:
          QueryKbCache answers_;
          obs::Gauge* gauge_;
        };
      )cc"},
      {"src/store/fact_store.cc", R"cc(
        void FactStore::Ingest(const std::string& key) {
          std::lock_guard<std::mutex> lock(store_shard.mutex);
          gauge_->Clear();
          answers_.Clear();
        }
      )cc"},
  });
  const std::string kInversion =
      "FactStore::store_shard.mutex->ShardedLru::shard.mutex";
  auto diags = CheckLockOrder(index);
  ASSERT_TRUE(HasKey(diags, Rule::kC3, kInversion));
  EXPECT_EQ(diags.size(), 1u);  // the Gauge call orders store -> metrics

  // Typed to the other class only: no memo edge.
  index = BuildIndex({
      {"src/memo/sharded_lru.h", kSharedNameMemo},
      {"src/obs/gauge.h", kSharedNameOther},
      {"src/store/fact_store.cc", R"cc(
        void FactStore::Ingest(obs::Gauge& gauge) {
          std::lock_guard<std::mutex> lock(store_shard.mutex);
          gauge.Clear();
        }
      )cc"},
  });
  EXPECT_FALSE(Has(CheckLockOrder(index), Rule::kC3));

  // An untyped receiver (a call's result) may be either class.
  index = BuildIndex({
      {"src/memo/sharded_lru.h", kSharedNameMemo},
      {"src/obs/gauge.h", kSharedNameOther},
      {"src/store/fact_store.cc", R"cc(
        void FactStore::Ingest() {
          std::lock_guard<std::mutex> lock(store_shard.mutex);
          tier().Clear();
        }
      )cc"},
  });
  EXPECT_TRUE(HasKey(CheckLockOrder(index), Rule::kC3, kInversion));
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

TEST(RuleA1Test, AssignIsGrowthUnlessWorkspaceRooted) {
  ProjectIndex index = BuildIndex({{"src/densify/d.cc", R"cc(
    void Helper(size_t n) {
      ws.marks.assign(n, 0);
      v.assign(n, 0);
    }
    void GreedyDensifier::Densify() { Helper(4); }
  )cc"}});
  auto diags = CheckHotPathAlloc(index, DefaultHotPathRoots());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_TRUE(HasKey(diags, Rule::kA1, "Helper/assign"));
  EXPECT_EQ(diags[0].line, 4);
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

}  // namespace
}  // namespace qkbfly::lint
