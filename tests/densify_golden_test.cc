// Golden digests of the four inference modes, and of the canonicalizer's
// triples-only and tau = 0.9 branches, over a fixed gold subset. Each
// configuration runs BuildKb over the 12-article dataset densify_test uses;
// the test pins a 64-bit FNV-1a digest of the serialized KB and, per
// document, of the densifier's removal order, objective bits and
// assignments. The digests are the reference the densify and canonicalizer
// implementations are held to: a refactor that keeps them is bit-identical
// for greedy, pipeline and ILP alike, and for every canonicalizer branch.
// Moving a digest is a deliberate act and must be noted in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/qkbfly.h"
#include "synth/dataset.h"

namespace qkbfly {
namespace {

const SynthDataset& Dataset() {
  static const SynthDataset* ds = [] {
    DatasetConfig config;
    config.wiki_eval_articles = 12;
    return BuildDataset(config).release();
  }();
  return *ds;
}

class Fnv1a {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void Value(T v) {
    Bytes(&v, sizeof(v));
  }
  void Double(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Value(bits);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Digests {
  uint64_t kb = 0;
  uint64_t densify = 0;
};

Digests DigestConfig(const EngineConfig& config, const char* name) {
  const SynthDataset& ds = Dataset();
  std::vector<Document> docs;
  for (const GoldDocument& gd : ds.wiki_eval) docs.push_back(gd.doc);
  QkbflyEngine engine(ds.repository.get(), &ds.patterns, &ds.stats, config);
  std::vector<DocumentResult> results;
  OnTheFlyKb kb = engine.BuildKb(docs, &results);

  Digests out;
  Fnv1a kb_hash;
  const std::string bytes = kb.Serialize();
  kb_hash.Bytes(bytes.data(), bytes.size());
  out.kb = kb_hash.hash();

  Fnv1a densify_hash;
  for (const DocumentResult& r : results) {
    const DensifyResult& d = r.densified;
    densify_hash.Value(static_cast<uint64_t>(d.removal_order.size()));
    for (EdgeId e : d.removal_order) densify_hash.Value(e);
    densify_hash.Double(d.objective);
    densify_hash.Value(d.edges_removed);
    for (const DensifyResult::Assignment& a : d.assignments) {
      densify_hash.Value(a.mention);
      densify_hash.Value(a.entity);
      densify_hash.Double(a.confidence);
      densify_hash.Double(a.weight);
      densify_hash.Value(static_cast<uint8_t>(a.exact_alias));
    }
    for (const auto& [pronoun, antecedent] : d.pronoun_antecedents) {
      densify_hash.Value(pronoun);
      densify_hash.Value(antecedent);
    }
  }
  out.densify = densify_hash.hash();
  std::printf("%s kb=0x%016" PRIx64 " densify=0x%016" PRIx64 "\n", name,
              out.kb, out.densify);
  return out;
}

Digests DigestMode(InferenceMode mode) {
  EngineConfig config;
  config.mode = mode;
  return DigestConfig(config, InferenceModeName(mode));
}

TEST(DensifyGoldenTest, Joint) {
  Digests d = DigestMode(InferenceMode::kJoint);
  EXPECT_EQ(d.kb, 0x68365440c18f39fcull);
  EXPECT_EQ(d.densify, 0x6786b692945a3a39ull);
}

TEST(DensifyGoldenTest, NounOnly) {
  Digests d = DigestMode(InferenceMode::kNounOnly);
  EXPECT_EQ(d.kb, 0xf7d438dba03b2fa1ull);
  EXPECT_EQ(d.densify, 0x58eeb648c5b058a1ull);
}

TEST(DensifyGoldenTest, Pipeline) {
  Digests d = DigestMode(InferenceMode::kPipeline);
  EXPECT_EQ(d.kb, 0x26e4291d354f3333ull);
  EXPECT_EQ(d.densify, 0xb5c6b87d5f32b608ull);
}

TEST(DensifyGoldenTest, Ilp) {
  Digests d = DigestMode(InferenceMode::kIlp);
  EXPECT_EQ(d.kb, 0xc31450038d8f6511ull);
  EXPECT_EQ(d.densify, 0x0afb270909e1d42full);
}

// The canonicalizer's two non-default branches over the joint densifier:
// one SPO triple per relation edge, and the precision-oriented threshold
// that drops most facts while their emerging clusters stay registered. The
// densify digest equals Joint's; only the KB bytes move.
TEST(DensifyGoldenTest, TriplesOnly) {
  EngineConfig config;
  config.canon.triples_only = true;
  Digests d = DigestConfig(config, "QKBfly-triples");
  EXPECT_EQ(d.kb, 0x216e789e606eee3dull);
  EXPECT_EQ(d.densify, 0x6786b692945a3a39ull);
}

TEST(DensifyGoldenTest, ConfidenceThreshold09) {
  EngineConfig config;
  config.canon.confidence_threshold = 0.9;
  Digests d = DigestConfig(config, "QKBfly-tau0.9");
  EXPECT_EQ(d.kb, 0xf5844aa55656f8ceull);
  EXPECT_EQ(d.densify, 0x6786b692945a3a39ull);
}

}  // namespace
}  // namespace qkbfly
