#include <gtest/gtest.h>

#include "query/analyzer.h"
#include "query/lexer.h"
#include "query/parser.h"

namespace aseq {
namespace {

// --------------------------------------------------------------------------
// Lexer
// --------------------------------------------------------------------------

TEST(LexerTest, BasicTokens) {
  auto result = Tokenize("SEQ(A, !B) <= >= != = 3 2.5 'str'");
  ASSERT_TRUE(result.ok());
  const auto& toks = *result;
  ASSERT_GE(toks.size(), 13u);
  EXPECT_EQ(toks[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ(toks[0].text, "SEQ");
  EXPECT_EQ(toks[1].kind, TokenKind::kLParen);
  EXPECT_EQ(toks[3].kind, TokenKind::kComma);
  EXPECT_EQ(toks[4].kind, TokenKind::kBang);
  EXPECT_EQ(toks[6].kind, TokenKind::kRParen);
  EXPECT_EQ(toks[7].kind, TokenKind::kLe);
  EXPECT_EQ(toks[8].kind, TokenKind::kGe);
  EXPECT_EQ(toks[9].kind, TokenKind::kNe);
  EXPECT_EQ(toks[10].kind, TokenKind::kEq);
  EXPECT_EQ(toks[11].kind, TokenKind::kInteger);
  EXPECT_EQ(toks[11].int_value, 3);
  EXPECT_EQ(toks[12].kind, TokenKind::kFloat);
  EXPECT_DOUBLE_EQ(toks[12].float_value, 2.5);
  EXPECT_EQ(toks[13].kind, TokenKind::kString);
  EXPECT_EQ(toks[13].text, "str");
  EXPECT_EQ(toks.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, DurationSuffixSplits) {
  auto result = Tokenize("10s");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].kind, TokenKind::kInteger);
  EXPECT_EQ((*result)[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*result)[1].text, "s");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(Tokenize("'abc").ok());
}

TEST(LexerTest, UnexpectedCharacterFails) {
  auto result = Tokenize("A # B");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, KeywordsCaseInsensitive) {
  auto result = Tokenize("pattern");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE((*result)[0].IsKeyword("PATTERN"));
}

// --------------------------------------------------------------------------
// Parser
// --------------------------------------------------------------------------

TEST(ParserTest, MinimalQuery) {
  auto result = ParseQuery("PATTERN SEQ(A, B, C)");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Query& q = *result;
  ASSERT_EQ(q.pattern.size(), 3u);
  EXPECT_EQ(q.pattern.elements()[0].type_name, "A");
  EXPECT_FALSE(q.pattern.elements()[0].negated);
  EXPECT_EQ(q.agg.func, AggFunc::kCount);
  EXPECT_EQ(q.window_ms, 0);
  EXPECT_FALSE(q.group_by.has_value());
}

TEST(ParserTest, NegationInPattern) {
  auto result = ParseQuery("PATTERN SEQ(DELL, IPIX, !QQQ, AMAT)");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->pattern.size(), 4u);
  EXPECT_TRUE(result->pattern.elements()[2].negated);
  EXPECT_EQ(result->pattern.elements()[2].type_name, "QQQ");
  EXPECT_TRUE(result->pattern.has_negation());
  EXPECT_EQ(result->pattern.num_positive(), 3u);
}

TEST(ParserTest, PaperNetworkSecurityQuery) {
  // Application I, Sec. 1, with the paper's angle-bracket clause wrappers.
  auto result = ParseQuery(
      "PATTERN <SEQ(TypeUsername,TypePassword,ClickSubmit)> "
      "WHERE <TypePassword.value != TypeUsername.Password> "
      "GROUP BY <IP> "
      "AGG COUNT "
      "WITHIN 10s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pattern.size(), 3u);
  ASSERT_EQ(result->where.terms.size(), 1u);
  EXPECT_EQ(result->where.terms[0].op, CmpOp::kNe);
  ASSERT_TRUE(result->group_by.has_value());
  EXPECT_EQ(result->group_by->attr_name, "IP");
  EXPECT_EQ(result->window_ms, 10000);
}

TEST(ParserTest, PaperECommerceQueryChainedEquality) {
  // Application II: the equality chain expands into pairwise terms.
  auto result = ParseQuery(
      "PATTERN SEQ(Kindle, KindleCase, Stylus) "
      "WHERE Kindle.userId = KindleCase.userId = Stylus.userId "
      "AGG COUNT WITHIN 1hour");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->where.terms.size(), 2u);
  EXPECT_EQ(result->where.terms[0].lhs.elem_name, "Kindle");
  EXPECT_EQ(result->where.terms[0].rhs.elem_name, "KindleCase");
  EXPECT_EQ(result->where.terms[1].lhs.elem_name, "KindleCase");
  EXPECT_EQ(result->where.terms[1].rhs.elem_name, "Stylus");
  EXPECT_EQ(result->window_ms, 3600 * 1000);
}

TEST(ParserTest, AggFunctions) {
  auto sum = ParseQuery("PATTERN SEQ(A, B) AGG SUM(B.weight) WITHIN 5s");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->agg.func, AggFunc::kSum);
  EXPECT_EQ(sum->agg.elem_name, "B");
  EXPECT_EQ(sum->agg.attr_name, "weight");

  auto avg = ParseQuery("PATTERN SEQ(A, B) AGG AVG(B.w)");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(avg->agg.func, AggFunc::kAvg);
  auto mn = ParseQuery("PATTERN SEQ(A, B) AGG MIN(A.w)");
  ASSERT_TRUE(mn.ok());
  EXPECT_EQ(mn->agg.func, AggFunc::kMin);
  auto mx = ParseQuery("PATTERN SEQ(A, B) AGG max(A.w)");
  ASSERT_TRUE(mx.ok());
  EXPECT_EQ(mx->agg.func, AggFunc::kMax);
  auto cnt = ParseQuery("PATTERN SEQ(A, B) AGG COUNT()");
  ASSERT_TRUE(cnt.ok());
  EXPECT_EQ(cnt->agg.func, AggFunc::kCount);
}

TEST(ParserTest, WindowUnits) {
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 1500")->window_ms, 1500);
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 1500ms")->window_ms, 1500);
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 10s")->window_ms, 10000);
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 2min")->window_ms, 120000);
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 1hour")->window_ms, 3600000);
  EXPECT_EQ(ParseQuery("PATTERN SEQ(A,B) WITHIN 1.5s")->window_ms, 1500);
}

TEST(ParserTest, LocalPredicatesWithLiterals) {
  auto result = ParseQuery(
      "PATTERN SEQ(Kindle, Case) WHERE Kindle.model = 'touch' AND "
      "Case.price < 20 AGG COUNT WITHIN 1s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->where.terms.size(), 2u);
  EXPECT_EQ(result->where.terms[0].rhs.literal.AsString(), "touch");
  EXPECT_EQ(result->where.terms[1].op, CmpOp::kLt);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("SEQ(A, B)").ok());             // missing PATTERN
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A, B").ok());      // unbalanced
  EXPECT_FALSE(ParseQuery("PATTERN SEQ()").ok());         // empty pattern
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) WITHIN").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) WITHIN 5parsec").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) WITHIN 0s").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) AGG MEDIAN(A.x)").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) trailing junk").ok());
  EXPECT_FALSE(ParseQuery("PATTERN SEQ(A,B) WHERE A.x").ok());  // no cmp
}

TEST(ParserTest, RoundTripViaToString) {
  const char* text =
      "PATTERN SEQ(A, !B, C) WHERE A.id = C.id GROUP BY ip AGG COUNT "
      "WITHIN 2s";
  auto q1 = ParseQuery(text);
  ASSERT_TRUE(q1.ok());
  auto q2 = ParseQuery(q1->ToString());
  ASSERT_TRUE(q2.ok()) << "canonical text failed to reparse: "
                       << q1->ToString();
  EXPECT_EQ(q1->ToString(), q2->ToString());
  EXPECT_TRUE(q1->pattern == q2->pattern);
}

TEST(ParseDurationTest, Standalone) {
  EXPECT_EQ(*ParseDuration("250"), 250);
  EXPECT_EQ(*ParseDuration("10 s"), 10000);
  EXPECT_EQ(*ParseDuration("3 minutes"), 180000);
  EXPECT_FALSE(ParseDuration("abc").ok());
  EXPECT_FALSE(ParseDuration("-5s").ok());
}

// --------------------------------------------------------------------------
// Analyzer
// --------------------------------------------------------------------------

TEST(AnalyzerTest, ResolvesTypesAndRoles) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText("PATTERN SEQ(A, B, C) WITHIN 1s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const CompiledQuery& cq = *result;
  EXPECT_EQ(cq.num_positive(), 3u);
  EventTypeId b = *schema.FindEventType("B");
  const std::vector<Role>* roles = cq.FindRoles(b);
  ASSERT_NE(roles, nullptr);
  ASSERT_EQ(roles->size(), 1u);
  EXPECT_FALSE((*roles)[0].negated);
  EXPECT_EQ((*roles)[0].position, 2u);
  EXPECT_EQ(cq.FindRoles(9999), nullptr);
}

TEST(AnalyzerTest, NegationRoles) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText("PATTERN SEQ(A, B, !X, C) WITHIN 1s");
  ASSERT_TRUE(result.ok());
  const std::vector<Role>* roles = result->FindRoles(*schema.FindEventType("X"));
  ASSERT_NE(roles, nullptr);
  ASSERT_EQ(roles->size(), 1u);
  EXPECT_TRUE((*roles)[0].negated);
  EXPECT_EQ((*roles)[0].position, 2u);  // resets prefix (A, B)
  EXPECT_EQ(result->num_positive(), 3u);
}

TEST(AnalyzerTest, DuplicateTypeRolesDescending) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText("PATTERN SEQ(A, B, A) WITHIN 1s");
  ASSERT_TRUE(result.ok());
  const std::vector<Role>* roles = result->FindRoles(*schema.FindEventType("A"));
  ASSERT_EQ(roles->size(), 2u);
  EXPECT_EQ((*roles)[0].position, 3u);  // descending positions
  EXPECT_EQ((*roles)[1].position, 1u);
}

TEST(AnalyzerTest, RejectsLeadingOrTrailingNegation) {
  Schema schema;
  Analyzer analyzer(&schema);
  EXPECT_FALSE(analyzer.AnalyzeText("PATTERN SEQ(!A, B)").ok());
  EXPECT_FALSE(analyzer.AnalyzeText("PATTERN SEQ(A, !B)").ok());
  EXPECT_TRUE(analyzer.AnalyzeText("PATTERN SEQ(A, !B, C)").ok());
}

TEST(AnalyzerTest, ClassifiesLocalPredicates) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, B) WHERE A.x > 5 AND B.y = 'z' WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->has_join_predicates());
  EXPECT_FALSE(result->partitioned());
  EXPECT_EQ(result->local_predicates()[0].size(), 1u);
  EXPECT_EQ(result->local_predicates()[1].size(), 1u);
}

TEST(AnalyzerTest, ResolvesTheStoredWhereTerms) {
  // Every attribute reference of the compiled query's own WHERE carries
  // its element index and attribute id, whatever class the term falls in
  // (local, equivalence, join); the query text is unchanged.
  const std::string text =
      "PATTERN SEQ(A, B, C) WHERE A.x > 5 AND A.id = B.id = C.id AND "
      "B.y < C.z WITHIN 1s";
  Schema schema;
  Analyzer analyzer(&schema);
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto result = analyzer.Analyze(*parsed);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<Comparison>& terms = result->query().where.terms;
  ASSERT_EQ(terms.size(), 4u);
  struct Ref {
    int elem_index;
    const char* attr;
  };
  const std::vector<std::pair<Ref, Ref>> want = {
      {{0, "x"}, {-1, nullptr}},
      {{0, "id"}, {1, "id"}},
      {{1, "id"}, {2, "id"}},
      {{1, "y"}, {2, "z"}},
  };
  for (size_t i = 0; i < terms.size(); ++i) {
    const std::pair<const Operand*, Ref> sides[] = {
        {&terms[i].lhs, want[i].first}, {&terms[i].rhs, want[i].second}};
    for (const auto& [op, ref] : sides) {
      if (ref.attr == nullptr) {
        EXPECT_FALSE(op->is_attr_ref()) << terms[i].ToString();
        continue;
      }
      ASSERT_TRUE(op->is_attr_ref()) << terms[i].ToString();
      EXPECT_EQ(op->elem_index, ref.elem_index) << terms[i].ToString();
      EXPECT_EQ(op->attr, *schema.FindAttribute(ref.attr))
          << terms[i].ToString();
    }
  }
  EXPECT_EQ(result->query().ToString(), parsed->ToString());
}

TEST(AnalyzerTest, LocalPredicateFiltersEvents) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result =
      analyzer.AnalyzeText("PATTERN SEQ(A, B) WHERE A.x > 5 WITHIN 1s");
  ASSERT_TRUE(result.ok());
  Event pass(*schema.FindEventType("A"), 0);
  pass.SetAttr(*schema.FindAttribute("x"), Value(6));
  Event fail(*schema.FindEventType("A"), 0);
  fail.SetAttr(*schema.FindAttribute("x"), Value(5));
  Event missing(*schema.FindEventType("A"), 0);
  EXPECT_TRUE(result->QualifiesFor(pass, 0));
  EXPECT_FALSE(result->QualifiesFor(fail, 0));
  EXPECT_FALSE(result->QualifiesFor(missing, 0));
}

TEST(AnalyzerTest, FullEquivalenceClassBecomesPartition) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, B, C) WHERE A.id = B.id = C.id WITHIN 1s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partitioned());
  EXPECT_FALSE(result->has_join_predicates());
  ASSERT_EQ(result->partition_spec().parts.size(), 1u);
  EXPECT_FALSE(result->partition_spec().per_group_output);
}

TEST(AnalyzerTest, PartialEquivalenceDemotesToJoin) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result =
      analyzer.AnalyzeText("PATTERN SEQ(A, B, C) WHERE A.id = B.id WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->partitioned());
  EXPECT_TRUE(result->has_join_predicates());
}

TEST(AnalyzerTest, CrossAttributeEqualityIsJoin) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result =
      analyzer.AnalyzeText("PATTERN SEQ(A, B) WHERE A.x = B.y WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_join_predicates());
}

TEST(AnalyzerTest, NonEqualityCrossElementIsJoin) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result =
      analyzer.AnalyzeText("PATTERN SEQ(A, B) WHERE A.x < B.x WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->has_join_predicates());
}

TEST(AnalyzerTest, GroupByCoversAllElements) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, !X, B) GROUP BY ip AGG COUNT WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->partitioned());
  EXPECT_TRUE(result->partition_spec().per_group_output);
  ASSERT_EQ(result->partition_spec().parts.size(), 1u);
  const auto& part = result->partition_spec().parts[0];
  EXPECT_TRUE(part.is_group_by);
  for (bool covers : part.covers_elem) EXPECT_TRUE(covers);
}

TEST(AnalyzerTest, EquivalenceChainThroughNegatedElement) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, !X, B) WHERE A.id = X.id = B.id WITHIN 1s");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->partitioned());
  const auto& part = result->partition_spec().parts[0];
  EXPECT_TRUE(part.covers_elem[0]);
  EXPECT_TRUE(part.covers_elem[1]);  // the negated element is constrained
  EXPECT_TRUE(part.covers_elem[2]);
}

TEST(AnalyzerTest, AggCarrierResolution) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, B, C, D) AGG SUM(C.weight) WITHIN 1s");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->agg_positive_pos(), 2);
  EXPECT_EQ(result->agg().elem_index, 2);

  // Carrier on a negated element is rejected.
  EXPECT_FALSE(
      analyzer.AnalyzeText("PATTERN SEQ(A, !B, C) AGG SUM(B.w)").ok());
  // Carrier not in the pattern.
  EXPECT_FALSE(analyzer.AnalyzeText("PATTERN SEQ(A, B) AGG SUM(Z.w)").ok());
}

TEST(AnalyzerTest, AmbiguousReferenceRejected) {
  Schema schema;
  Analyzer analyzer(&schema);
  EXPECT_FALSE(
      analyzer.AnalyzeText("PATTERN SEQ(A, B, A) WHERE A.x > 1").ok());
  EXPECT_FALSE(analyzer.AnalyzeText("PATTERN SEQ(A, B, A) AGG SUM(A.x)").ok());
}

TEST(AnalyzerTest, ConstantPredicates) {
  Schema schema;
  Analyzer analyzer(&schema);
  // Constantly true terms are dropped.
  auto ok = analyzer.AnalyzeText("PATTERN SEQ(A, B) WHERE 1 = 1 WITHIN 1s");
  ASSERT_TRUE(ok.ok());
  EXPECT_FALSE(ok->has_join_predicates());
  // Constantly false clauses are an error.
  EXPECT_FALSE(analyzer.AnalyzeText("PATTERN SEQ(A, B) WHERE 1 = 2").ok());
}

TEST(AnalyzerTest, JoinPredicateOnNegatedElementRejected) {
  Schema schema;
  Analyzer analyzer(&schema);
  EXPECT_FALSE(
      analyzer.AnalyzeText("PATTERN SEQ(A, !X, B) WHERE A.v < X.v").ok());
}

TEST(AnalyzerTest, PartitionKeyRouting) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto result = analyzer.AnalyzeText(
      "PATTERN SEQ(A, B) WHERE A.id = B.id GROUP BY ip WITHIN 1s");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->partition_spec().parts.size(), 2u);
  Event e(*schema.FindEventType("A"), 0);
  e.SetAttr(*schema.FindAttribute("id"), Value(7));
  e.SetAttr(*schema.FindAttribute("ip"), Value("10.0.0.1"));
  PartitionKey key;
  ASSERT_TRUE(result->PartitionKeyFor(e, 0, &key));
  ASSERT_EQ(key.parts.size(), 2u);
  // One part is the equivalence id, the other the group-by ip.
  int group_part = result->partition_spec().group_part;
  EXPECT_TRUE(key.parts[group_part].Equals(Value("10.0.0.1")));
  EXPECT_TRUE(key.parts[1 - group_part].Equals(Value(7)));

  Event missing(*schema.FindEventType("A"), 0);
  missing.SetAttr(*schema.FindAttribute("id"), Value(7));
  EXPECT_FALSE(result->PartitionKeyFor(missing, 0, &key));
}

}  // namespace
}  // namespace aseq
