#include "nlp/pipeline.h"

#include <gtest/gtest.h>

#include "nlp/time_tagger.h"
#include "text/tokenizer.h"

namespace qkbfly {
namespace {

TEST(TimeTaggerTest, FullDateMonthDayYear) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("She filed for divorce on September 19, 2016.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  auto times = tt.Tag(tokens);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0].normalized, "2016-09-19");
}

TEST(TimeTaggerTest, DayMonthYear) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("Pope Francis was born on 17 December 1936 in Buenos Aires.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  auto times = tt.Tag(tokens);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0].normalized, "1936-12-17");
}

TEST(TimeTaggerTest, MonthYear) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("He received the medal in May 2012 from the president.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  auto times = tt.Tag(tokens);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0].normalized, "2012-05");
}

TEST(TimeTaggerTest, BareYear) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("The film premiered in 2004 worldwide.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  auto times = tt.Tag(tokens);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0].normalized, "2004");
}

TEST(TimeTaggerTest, Decade) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("He flew on an airplane in the 1980s.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  auto times = tt.Tag(tokens);
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0].normalized, "198X");
}

TEST(TimeTaggerTest, NoFalsePositiveOnSmallNumbers) {
  Tokenizer tok;
  PosTagger tagger;
  auto tokens = tok.Tokenize("He scored 3 goals in 12 matches.");
  tagger.Tag(&tokens);
  TimeTagger tt;
  EXPECT_TRUE(tt.Tag(tokens).empty());
}

TEST(NerTaggerTest, HeuristicPersonByFirstName) {
  NlpPipeline pipeline;
  auto s = pipeline.AnnotateSentence("Jessica Leeds accused him.");
  ASSERT_FALSE(s.ner_mentions.empty());
  EXPECT_EQ(s.ner_mentions[0].type, NerType::kPerson);
  EXPECT_EQ(SpanText(s.tokens, s.ner_mentions[0].span), "Jessica Leeds");
}

TEST(NerTaggerTest, OrganizationByCueWord) {
  NlpPipeline pipeline;
  auto s = pipeline.AnnotateSentence("He supports the Daniel Pearl Foundation generously.");
  bool found_org = false;
  for (const auto& m : s.ner_mentions) {
    if (m.type == NerType::kOrganization) {
      EXPECT_EQ(SpanText(s.tokens, m.span), "Daniel Pearl Foundation");
      found_org = true;
    }
  }
  EXPECT_TRUE(found_org);
}

TEST(NerTaggerTest, TimeMentionsBecomeTimeEntities) {
  NlpPipeline pipeline;
  auto s = pipeline.AnnotateSentence("They divorced in September 2016.");
  bool found_time = false;
  for (const auto& m : s.ner_mentions) {
    if (m.type == NerType::kTime) found_time = true;
  }
  EXPECT_TRUE(found_time);
}

TEST(NerTaggerTest, NumbersBecomeNumberEntities) {
  NlpPipeline pipeline;
  auto s = pipeline.AnnotateSentence("Pitt donated $100,000 to charity.");
  bool found_number = false;
  for (const auto& m : s.ner_mentions) {
    if (m.type == NerType::kNumber) found_number = true;
  }
  EXPECT_TRUE(found_number);
}

TEST(NlpPipelineTest, DocumentAnnotationSplitsSentences) {
  NlpPipeline pipeline;
  auto doc = pipeline.Annotate("d1", "Brad Pitt",
                               "Brad Pitt is an actor. He supports the ONE Campaign.");
  ASSERT_EQ(doc.sentences.size(), 2u);
  EXPECT_EQ(doc.id, "d1");
  EXPECT_FALSE(doc.sentences[0].tokens.empty());
}

TEST(NlpPipelineTest, TokensCarryPosAndLemma) {
  NlpPipeline pipeline;
  auto doc = pipeline.Annotate("d2", "", "Pitt donated $100,000 to the foundation.");
  ASSERT_EQ(doc.sentences.size(), 1u);
  for (const Token& t : doc.sentences[0].tokens) {
    EXPECT_NE(t.pos, PosTag::kUNK) << t.text;
  }
}

}  // namespace
}  // namespace qkbfly
