// Differential equivalence suite for the compiled admission layer
// (src/plan/admission.h). Pins three contracts:
//
//  1. AdmissionProgram::AdmitRole is bit-exact with the interpreted
//     reference path (CompiledQuery::QualifiesFor + PartitionKeyFor +
//     carrier load) — fuzzed over random queries and random events,
//     including the cross-type / NaN / missing-attribute corners where the
//     typed opcodes must fall back to generic EvalCmp semantics.
//  2. BatchAdmitter's interning pass assigns ids and seals key hashes by
//     the documented rules (positive roles intern, negated roles look up,
//     partially covered negated roles never seal) — checked against a
//     hand-replicated KeyInterner.
//  3. AdmissionProgram::RolesFor yields exactly the dispatch order of the
//     analyzer's role map flattened by EventTypeId (the dense table the
//     retired query/role_table.h shim used to build) — one lowering, so
//     dispatch cannot drift between consumers.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "common/value.h"
#include "container/key_interner.h"
#include "metrics/metrics.h"
#include "plan/admission.h"
#include "query/analyzer.h"
#include "query/compiled_query.h"
#include "test_util.h"

namespace aseq {
namespace {

using plan::AdmissionProgram;
using plan::AdmissionRecord;
using plan::BatchAdmitter;
using plan::RoleProgram;
using testing_util::MustCompile;
using testing_util::StreamBuilder;

// Value equality that also identifies NaN with NaN: a NaN-valued partition
// attribute flows through both paths as the same payload, but
// Value::Equals (IEEE ==) would report the copies unequal.
bool SamePayload(const Value& a, const Value& b) {
  if (a.type() == ValueType::kDouble && b.type() == ValueType::kDouble &&
      std::isnan(a.AsDouble()) && std::isnan(b.AsDouble())) {
    return true;
  }
  return a.Equals(b);
}

bool SameDouble(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

// The interpreted reference: exactly what engines computed before the
// compiled admission layer, step by step.
struct InterpretedAdmission {
  bool admitted = false;
  PartitionKey key;
  std::vector<bool> covered;
  double carrier = 0.0;
};

InterpretedAdmission InterpretAdmit(const CompiledQuery& q, const Event& e,
                                    size_t elem_index) {
  InterpretedAdmission out;
  if (!q.QualifiesFor(e, elem_index)) return out;
  if (!q.PartitionKeyFor(e, elem_index, &out.key, &out.covered)) return out;
  if (q.agg_positive_pos() >= 0 &&
      static_cast<int>(elem_index) == q.agg().elem_index) {
    // QualifiesFor guarantees presence + numeric for the carrier.
    out.carrier = e.FindAttr(q.agg().attr)->ToDouble();
  }
  out.admitted = true;
  return out;
}

// Runs every role the event's type plays through both paths and asserts
// identical admission decisions, keys, coverage flags, and carriers.
void ExpectAdmissionEquivalence(const CompiledQuery& q,
                                const AdmissionProgram& program, const Event& e,
                                const std::string& context) {
  const std::vector<Role>* roles = q.FindRoles(e.type());
  const auto span = program.RolesFor(e.type());
  ASSERT_EQ(roles == nullptr ? size_t{0} : roles->size(), span.size())
      << context;
  for (size_t i = 0; i < span.size(); ++i) {
    const RoleProgram& rp = span[i];
    const Role& role = (*roles)[i];
    const std::string where =
        context + " elem " + std::to_string(role.elem_index);
    ASSERT_EQ(rp.role.negated, role.negated) << where;
    ASSERT_EQ(rp.role.elem_index, role.elem_index) << where;
    ASSERT_EQ(rp.role.position, role.position) << where;
    ASSERT_EQ(&rp, program.FindRole(e.type(), role.elem_index)) << where;

    const InterpretedAdmission ref = InterpretAdmit(q, e, role.elem_index);
    AdmissionRecord rec;
    EngineStats stats;
    const bool admitted = program.AdmitRole(e, rp, &rec, &stats);
    ASSERT_EQ(admitted, ref.admitted) << where;
    if (!admitted) {
      EXPECT_EQ(stats.adm_admitted, 0u) << where;
      EXPECT_EQ(stats.adm_rejected_local + stats.adm_missing_attr, 1u) << where;
      continue;
    }
    EXPECT_EQ(stats.adm_admitted, 1u) << where;
    EXPECT_TRUE(SameDouble(rec.carrier, ref.carrier))
        << where << ": carrier " << rec.carrier << " vs " << ref.carrier;

    PartitionKey mkey;
    std::vector<bool> mcov;
    program.MaterializeKey(rec, &mkey, &mcov);
    ASSERT_EQ(mkey.parts.size(), ref.key.parts.size()) << where;
    ASSERT_EQ(mcov.size(), ref.covered.size()) << where;
    for (size_t p = 0; p < mkey.parts.size(); ++p) {
      EXPECT_TRUE(SamePayload(mkey.parts[p], ref.key.parts[p]))
          << where << ": part " << p << " " << mkey.parts[p].ToString()
          << " vs " << ref.key.parts[p].ToString();
      EXPECT_EQ(mcov[p], ref.covered[p]) << where << ": part " << p;
      // Borrowed values point at the event and carry their ValueHash.
      if (mcov[p]) {
        ASSERT_NE(rec.part_vals[p], nullptr) << where;
        EXPECT_EQ(rec.part_hashes[p], ValueHash{}(*rec.part_vals[p])) << where;
      } else {
        EXPECT_EQ(rec.part_vals[p], nullptr) << where;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Random query / event generation
// ---------------------------------------------------------------------------

// Emits a random valid query over event types {A, B, C, N} and attributes
// {x, y, s, id, v, g}: random local predicates (typed int/double/string
// literal forms, literal-on-lhs, attr-vs-attr on one element), optional
// full-coverage equivalence chain, optional GROUP BY, random aggregate.
std::string RandomQueryText(std::mt19937* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };

  struct Elem {
    const char* name;
    bool negated;
  };
  std::vector<Elem> elems;
  switch (pick(4)) {
    case 0:
      elems = {{"A", false}, {"B", false}};
      break;
    case 1:
      elems = {{"A", false}, {"N", true}, {"B", false}};
      break;
    case 2:
      elems = {{"A", false}, {"B", false}, {"C", false}};
      break;
    default:
      elems = {{"A", false}, {"N", true}, {"B", false}, {"C", false}};
      break;
  }
  std::string pattern;
  for (const Elem& e : elems) {
    if (!pattern.empty()) pattern += ", ";
    if (e.negated) pattern += "!";
    pattern += e.name;
  }

  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  static const char* kPredAttrs[] = {"x", "y", "s"};
  static const char* kStrLits[] = {"a", "b", "hi", "zz"};
  std::vector<std::string> terms;
  const int num_preds = pick(4);
  for (int t = 0; t < num_preds; ++t) {
    const Elem& elem = elems[pick(static_cast<int>(elems.size()))];
    const std::string attr_ref =
        std::string(elem.name) + "." + kPredAttrs[pick(3)];
    const std::string op = kOps[pick(6)];
    std::string lit;
    switch (pick(4)) {
      case 0:  // int literal → kNumericLit opcode (int64 payload)
        lit = std::to_string(pick(5));
        break;
      case 1:  // double literal → kNumericLit opcode (often vs int attrs)
        lit = std::to_string(pick(4)) + ".5";
        break;
      case 2:  // string literal → kStringLit opcode
        lit = std::string("'") + kStrLits[pick(4)] + "'";
        break;
      default: {  // attr-vs-attr on one element → kGeneric opcode
        const std::string other =
            std::string(elem.name) + "." + kPredAttrs[pick(3)];
        terms.push_back(attr_ref + " " + op + " " + other);
        continue;
      }
    }
    // Randomly place the literal on the lhs ("5 > A.x").
    terms.push_back(pick(2) == 0 ? attr_ref + " " + op + " " + lit
                                 : lit + " " + op + " " + attr_ref);
  }
  // Equivalence chain over `id` covering every positive element (anything
  // less is demoted to a join predicate, which admission ignores — and
  // would be rejected outright if it touched the negated element).
  if (pick(3) == 0) {
    std::vector<const char*> positives;
    for (const Elem& e : elems) {
      if (!e.negated) positives.push_back(e.name);
    }
    for (size_t i = 0; i + 1 < positives.size(); ++i) {
      terms.push_back(std::string(positives[i]) + ".id = " +
                      std::string(positives[i + 1]) + ".id");
    }
  }

  std::string text = "PATTERN SEQ(" + pattern + ")";
  for (size_t t = 0; t < terms.size(); ++t) {
    text += (t == 0 ? " WHERE " : " AND ") + terms[t];
  }
  if (pick(2) == 0) text += " GROUP BY g";
  switch (pick(5)) {
    case 0:
      text += " AGG COUNT";
      break;
    case 1:
      text += " AGG SUM(B.v)";
      break;
    case 2:
      text += " AGG AVG(B.v)";
      break;
    case 3:
      text += " AGG MIN(B.v)";
      break;
    default:
      text += " AGG MAX(B.v)";
      break;
  }
  text += " WITHIN 100s";
  return text;
}

// A random event of a random type (including one type outside every
// pattern), with each attribute randomly missing, null, int, double
// (occasionally NaN, often integral-valued to collide with int64 values
// across types), or a string from a small pool.
Event RandomEvent(Schema* schema, Timestamp ts, std::mt19937* rng) {
  auto pick = [&](int n) { return static_cast<int>((*rng)() % n); };
  static const char* kTypes[] = {"A", "B", "C", "N", "Z"};
  static const char* kAttrs[] = {"x", "y", "s", "id", "v", "g"};
  static const char* kStrs[] = {"a", "b", "hi", "zz"};
  Event e(schema->RegisterEventType(kTypes[pick(5)]), ts);
  for (const char* attr : kAttrs) {
    const int roll = pick(10);
    if (roll < 2) continue;  // missing
    Value v;
    if (roll == 2) {
      v = Value();  // explicit null
    } else if (roll < 6) {
      v = Value(static_cast<int64_t>(pick(7) - 3));
    } else if (roll < 9) {
      const int d = pick(8);
      if (d == 7) {
        v = Value(std::numeric_limits<double>::quiet_NaN());
      } else {
        // Half-integral values land on int64 values half the time —
        // exercises cross-type numeric Equals/LessThan in the fallback.
        v = Value(static_cast<double>(d) * 0.5);
      }
    } else {
      v = Value(kStrs[pick(4)]);
    }
    e.SetAttr(schema->RegisterAttribute(attr), std::move(v));
  }
  return e;
}

// ---------------------------------------------------------------------------
// 1. Differential fuzz: compiled vs interpreted admission
// ---------------------------------------------------------------------------

TEST(AdmissionEquivalence, DifferentialFuzz) {
  std::mt19937 rng(20140622);  // deterministic
  for (int iter = 0; iter < 150; ++iter) {
    Schema schema;
    const std::string text = RandomQueryText(&rng);
    Analyzer analyzer(&schema);
    auto compiled = analyzer.AnalyzeText(text);
    ASSERT_TRUE(compiled.ok()) << text << " — " << compiled.status().ToString();
    const CompiledQuery q = std::move(compiled).value();
    const AdmissionProgram program(q);
    for (int ev = 0; ev < 120; ++ev) {
      const Event e = RandomEvent(&schema, ev + 1, &rng);
      ExpectAdmissionEquivalence(
          q, program, e,
          text + " [iter " + std::to_string(iter) + " ev " +
              std::to_string(ev) + "]");
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Batched admission (no interner) emits exactly the records per-role
// admission admits, in dispatch order, with identical carriers.
TEST(AdmissionEquivalence, BatchMatchesPerRoleAdmission) {
  std::mt19937 rng(314159);
  BatchAdmitter admitter;
  for (int iter = 0; iter < 40; ++iter) {
    Schema schema;
    const std::string text = RandomQueryText(&rng);
    Analyzer analyzer(&schema);
    auto compiled = analyzer.AnalyzeText(text);
    ASSERT_TRUE(compiled.ok()) << text;
    const CompiledQuery q = std::move(compiled).value();
    const AdmissionProgram program(q);

    std::vector<Event> batch;
    for (int ev = 0; ev < 64; ++ev) {
      batch.push_back(RandomEvent(&schema, ev + 1, &rng));
    }
    EngineStats stats;
    admitter.AdmitBatch(program, batch, /*interner=*/nullptr, &stats);
    ASSERT_EQ(admitter.events().size(), batch.size()) << text;

    uint64_t admitted = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const Event& e = batch[i];
      std::vector<const RoleProgram*> expected;
      std::vector<double> carriers;
      for (const RoleProgram& rp : program.RolesFor(e.type())) {
        const InterpretedAdmission ref = InterpretAdmit(q, e, rp.role.elem_index);
        if (ref.admitted) {
          expected.push_back(&rp);
          carriers.push_back(ref.carrier);
        }
      }
      const auto records = admitter.RecordsFor(i);
      ASSERT_EQ(records.size(), expected.size())
          << text << " event " << i;
      for (size_t r = 0; r < records.size(); ++r) {
        EXPECT_EQ(records[r].role, expected[r]) << text << " event " << i;
        EXPECT_TRUE(SameDouble(records[r].carrier, carriers[r]))
            << text << " event " << i;
        // Without an interner key/key_hash are meaningless (recycled
        // scratch) — consumers read only role/carrier/part_vals/part_hashes.
      }
      admitted += records.size();
    }
    EXPECT_EQ(stats.adm_admitted, admitted) << text;
  }
}

// ---------------------------------------------------------------------------
// 2. Batch interning semantics vs a hand-replicated interner
// ---------------------------------------------------------------------------

// Replicates the documented interning rules record by record against a shadow
// interner and compares ids, sealed hashes, and the id-ordered value
// sequence (the checkpoint payload). Events must come from the schema the
// query was compiled against.
void CheckBatchInterning(Schema* schema, const CompiledQuery& q,
                         const std::string& text) {
  const AdmissionProgram program(q);
  const AdmissionProgram shadow_program(q);
  container::KeyInterner real;
  container::KeyInterner shadow;
  BatchAdmitter admitter;

  // Several batches through one admitter/interner pair: scratch reuse and
  // id continuity across batches are part of the contract.
  std::mt19937 ev_rng(424242);
  for (int batch_no = 0; batch_no < 6; ++batch_no) {
    std::vector<Event> batch;
    for (int ev = 0; ev < 48; ++ev) {
      batch.push_back(RandomEvent(schema, batch_no * 100 + ev + 1, &ev_rng));
    }
    admitter.AdmitBatch(program, batch, &real, nullptr);

    // Shadow replication: per record in order, covered parts intern
    // (positive) or look up (negated); hash sealed unless the role is a
    // partially covered negated probe (those scan the slab instead).
    size_t rec_idx = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const Event& e = batch[i];
      for (const RoleProgram& rp : shadow_program.RolesFor(e.type())) {
        AdmissionRecord rec;
        if (!shadow_program.AdmitRole(e, rp, &rec, nullptr)) continue;
        for (size_t p = 0; p < shadow_program.num_parts(); ++p) {
          if (rec.part_vals[p] == nullptr) continue;
          rec.key.ids[p] = rp.role.negated
                               ? shadow.Lookup(*rec.part_vals[p])
                               : shadow.Intern(*rec.part_vals[p]);
        }
        if (!(rp.role.negated && !rp.fully_covered)) {
          rec.key_hash = container::InternedKeyHash{}(rec.key);
        }
        ASSERT_LT(rec_idx, admitter.records().size()) << text;
        const AdmissionRecord& got = admitter.records()[rec_idx++];
        EXPECT_EQ(got.key, rec.key)
            << text << " batch " << batch_no << " event " << i;
        EXPECT_EQ(got.key_hash, rec.key_hash)
            << text << " batch " << batch_no << " event " << i;
      }
    }
    ASSERT_EQ(rec_idx, admitter.records().size()) << text;
  }

  // Identical id assignment history ⇒ identical checkpoint payload.
  ASSERT_EQ(real.size(), shadow.size()) << text;
  for (uint32_t id = 0; id < real.size(); ++id) {
    EXPECT_TRUE(SamePayload(real.ValueOf(id), shadow.ValueOf(id)))
        << text << " id " << id;
  }
}

TEST(AdmissionEquivalence, BatchInterningPartiallyCoveredNegation) {
  // `id` covers A and B but not !N; `g` covers everything — so the negated
  // role is partially covered (scans, never seals its hash) while positive
  // roles intern both parts.
  Schema schema;
  const CompiledQuery q = MustCompile(
      &schema,
      "PATTERN SEQ(A, !N, B) WHERE A.id = B.id GROUP BY g AGG COUNT "
      "WITHIN 100s");
  ASSERT_TRUE(q.partitioned());
  ASSERT_EQ(q.partition_spec().parts.size(), 2u);
  const AdmissionProgram program(q);
  for (const RoleProgram& rp :
       program.RolesFor(schema.RegisterEventType("N"))) {
    EXPECT_TRUE(rp.role.negated);
    EXPECT_FALSE(rp.fully_covered);
  }
  CheckBatchInterning(&schema, q, "partial-negation");
}

TEST(AdmissionEquivalence, BatchInterningFullyCoveredNegation) {
  // GROUP BY alone covers every element: the negated role is fully covered
  // — it looks up (never interns) and seals a hash targeting one partition.
  Schema schema;
  const CompiledQuery q = MustCompile(
      &schema, "PATTERN SEQ(A, !N, B) GROUP BY g AGG COUNT WITHIN 100s");
  ASSERT_TRUE(q.partitioned());
  const AdmissionProgram program(q);
  for (const RoleProgram& rp :
       program.RolesFor(schema.RegisterEventType("N"))) {
    EXPECT_TRUE(rp.role.negated);
    EXPECT_TRUE(rp.fully_covered);
  }
  CheckBatchInterning(&schema, q, "full-negation");
}

// Negated lookups never mint ids: a value only ever seen on the negated
// element stays out of the interner (kNoId probe), so id assignment is a
// pure function of the positive event stream.
TEST(AdmissionEquivalence, NegatedLookupDoesNotIntern) {
  Schema schema;
  const CompiledQuery q = MustCompile(
      &schema, "PATTERN SEQ(A, !N, B) GROUP BY g AGG COUNT WITHIN 100s");
  const AdmissionProgram program(q);
  std::vector<Event> batch = StreamBuilder(&schema)
                                 .Add("A", 1, {{"g", Value(int64_t{7})}})
                                 .Add("N", 2, {{"g", Value(int64_t{99})}})
                                 .Add("N", 3, {{"g", Value(int64_t{7})}})
                                 .Add("B", 4, {{"g", Value(int64_t{8})}})
                                 .Build();
  container::KeyInterner interner;
  BatchAdmitter admitter;
  admitter.AdmitBatch(program, batch, &interner, nullptr);
  ASSERT_EQ(admitter.records().size(), 4u);
  // Only the positive instances interned: g=7 (A) then g=8 (B).
  ASSERT_EQ(interner.size(), 2u);
  EXPECT_TRUE(interner.ValueOf(0).Equals(Value(int64_t{7})));
  EXPECT_TRUE(interner.ValueOf(1).Equals(Value(int64_t{8})));
  // The unseen negated value probes as kNoId; the seen one hits id 0.
  EXPECT_EQ(admitter.records()[1].key.ids[0], container::kNoId);
  EXPECT_EQ(admitter.records()[2].key.ids[0], 0u);
  // Fully covered negated probes still seal a target hash.
  EXPECT_EQ(admitter.records()[2].key_hash,
            container::InternedKeyHash{}(admitter.records()[2].key));
}

// ---------------------------------------------------------------------------
// 3. Typed-opcode corner cases (documented, beyond the fuzz)
// ---------------------------------------------------------------------------

struct CornerCase {
  const char* query;
  const char* attr;
  Value value;        // Value() = null attr; paired with `present`
  bool present;
  bool expect_admit;
  bool expect_generic;  // must have taken the EvalCmp fallback
};

void RunCornerCase(const CornerCase& c) {
  Schema schema;
  const CompiledQuery q = MustCompile(&schema, c.query);
  const AdmissionProgram program(q);
  Event e(schema.RegisterEventType("A"), 1);
  if (c.present) e.SetAttr(schema.RegisterAttribute(c.attr), c.value);
  ExpectAdmissionEquivalence(q, program, e, c.query);
  const RoleProgram* rp = program.FindRole(e.type(), 0);
  ASSERT_NE(rp, nullptr) << c.query;
  AdmissionRecord rec;
  EngineStats stats;
  EXPECT_EQ(program.AdmitRole(e, *rp, &rec, &stats), c.expect_admit)
      << c.query;
  EXPECT_EQ(stats.adm_generic_cmps > 0, c.expect_generic) << c.query;
}

TEST(AdmissionEquivalence, TypedPathsAndGenericFallback) {
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const CornerCase cases[] = {
      // Matching runtime types take the typed opcode (no generic cmps).
      {"PATTERN SEQ(A, B) WHERE A.x > 5 WITHIN 1s", "x", Value(int64_t{6}),
       true, true, false},
      {"PATTERN SEQ(A, B) WHERE A.y < 2.5 WITHIN 1s", "y", Value(2.0), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.s = 'hi' WITHIN 1s", "s", Value("hi"), true,
       true, false},
      // Literal-on-lhs typed form: 5 > x ⇔ x < 5.
      {"PATTERN SEQ(A, B) WHERE 5 > A.x WITHIN 1s", "x", Value(int64_t{4}),
       true, true, false},
      {"PATTERN SEQ(A, B) WHERE 5 > A.x WITHIN 1s", "x", Value(int64_t{5}),
       true, false, false},
      // Int attr vs double literal: cross-type numeric stays typed and
      // compares as doubles, magnitude semantics (3 > 2.5).
      {"PATTERN SEQ(A, B) WHERE A.x > 2.5 WITHIN 1s", "x", Value(int64_t{3}),
       true, true, false},
      {"PATTERN SEQ(A, B) WHERE A.x > 2.5 WITHIN 1s", "x", Value(int64_t{2}),
       true, false, false},
      {"PATTERN SEQ(A, B) WHERE A.x = 3.0 WITHIN 1s", "x", Value(int64_t{3}),
       true, true, false},
      // Above 2^53 an int attr vs an integral double literal compares as
      // doubles too: 2^53 + 1 widens to 2^53, so it equals the literal.
      {"PATTERN SEQ(A, B) WHERE A.x = 9007199254740992.0 WITHIN 1s", "x",
       Value(int64_t{9007199254740993}), true, true, false},
      // Double attr vs int literal: typed, compared as doubles (the shape
      // of `DELL.price > 10` on a stock trace).
      {"PATTERN SEQ(A, B) WHERE A.y > 10 WITHIN 1s", "y", Value(10.5), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.y > 10 WITHIN 1s", "y", Value(9.5), true,
       false, false},
      {"PATTERN SEQ(A, B) WHERE 10 >= A.y WITHIN 1s", "y", Value(10.0), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.y != 10 WITHIN 1s", "y", Value(10.0), true,
       false, false},
      // ... and NaN against an int literal keeps EvalCmp's unordered rules.
      {"PATTERN SEQ(A, B) WHERE A.y <= 10 WITHIN 1s", "y", Value(kNaN), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.y > 10 WITHIN 1s", "y", Value(kNaN), true,
       false, false},
      // String attr vs int literal: unordered — every ordered op false,
      // `!=` true.
      {"PATTERN SEQ(A, B) WHERE A.x < 5 WITHIN 1s", "x", Value("hi"), true,
       false, true},
      {"PATTERN SEQ(A, B) WHERE A.x != 5 WITHIN 1s", "x", Value("hi"), true,
       true, true},
      // NaN through the typed double path: phrased as EvalCmp phrases it,
      // so kLe = !(b < a) admits NaN while kLt rejects it.
      {"PATTERN SEQ(A, B) WHERE A.y < 10.5 WITHIN 1s", "y", Value(kNaN), true,
       false, false},
      {"PATTERN SEQ(A, B) WHERE A.y <= 10.5 WITHIN 1s", "y", Value(kNaN), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.y != 10.5 WITHIN 1s", "y", Value(kNaN), true,
       true, false},
      {"PATTERN SEQ(A, B) WHERE A.y = 10.5 WITHIN 1s", "y", Value(kNaN), true,
       false, false},
      // Missing attribute reads as null: `=` rejects, `!=` admits — via
      // the generic fallback in both cases.
      {"PATTERN SEQ(A, B) WHERE A.x = 5 WITHIN 1s", "x", Value(), false,
       false, true},
      {"PATTERN SEQ(A, B) WHERE A.x != 5 WITHIN 1s", "x", Value(), false,
       true, true},
      // Explicit null attribute behaves like a missing one.
      {"PATTERN SEQ(A, B) WHERE A.x = 5 WITHIN 1s", "x", Value(), true,
       false, true},
      // Attr-vs-attr on one element is always generic (x compared with
      // itself: x = x holds for int).
      {"PATTERN SEQ(A, B) WHERE A.x = A.x WITHIN 1s", "x", Value(int64_t{1}),
       true, true, true},
  };
  for (const CornerCase& c : cases) RunCornerCase(c);
}

TEST(AdmissionEquivalence, CarrierValidationAndLoad) {
  Schema schema;
  const CompiledQuery q =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG SUM(B.v) WITHIN 10s");
  const AdmissionProgram program(q);
  const EventTypeId b = schema.RegisterEventType("B");
  const AttrId v = schema.RegisterAttribute("v");
  const RoleProgram* rp = program.FindRole(b, 1);
  ASSERT_NE(rp, nullptr);
  EXPECT_TRUE(rp->is_carrier);

  AdmissionRecord rec;
  {  // Missing carrier attribute → rejected.
    Event e(b, 1);
    EngineStats stats;
    EXPECT_FALSE(program.AdmitRole(e, *rp, &rec, &stats));
    EXPECT_EQ(stats.adm_rejected_local, 1u);
    ExpectAdmissionEquivalence(q, program, e, "carrier-missing");
  }
  {  // Non-numeric carrier → rejected.
    Event e(b, 2);
    e.SetAttr(v, Value("oops"));
    EXPECT_FALSE(program.AdmitRole(e, *rp, &rec, nullptr));
    ExpectAdmissionEquivalence(q, program, e, "carrier-string");
  }
  {  // Numeric int carrier → admitted with its double value.
    Event e(b, 3);
    e.SetAttr(v, Value(int64_t{7}));
    ASSERT_TRUE(program.AdmitRole(e, *rp, &rec, nullptr));
    EXPECT_EQ(rec.carrier, 7.0);
    ExpectAdmissionEquivalence(q, program, e, "carrier-int");
  }
  {  // The non-carrier element ignores the aggregate attribute entirely.
    Event e(schema.RegisterEventType("A"), 4);
    const RoleProgram* a_rp = program.FindRole(e.type(), 0);
    ASSERT_NE(a_rp, nullptr);
    EXPECT_FALSE(a_rp->is_carrier);
    ASSERT_TRUE(program.AdmitRole(e, *a_rp, &rec, nullptr));
    EXPECT_EQ(rec.carrier, 0.0);
  }
}

TEST(AdmissionEquivalence, MissingPartitionAttributeCountsAndRejects) {
  Schema schema;
  const CompiledQuery q = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY g AGG COUNT WITHIN 10s");
  const AdmissionProgram program(q);
  Event e(schema.RegisterEventType("A"), 1);  // no `g`
  const RoleProgram* rp = program.FindRole(e.type(), 0);
  ASSERT_NE(rp, nullptr);
  AdmissionRecord rec;
  EngineStats stats;
  EXPECT_FALSE(program.AdmitRole(e, *rp, &rec, &stats));
  EXPECT_EQ(stats.adm_missing_attr, 1u);
  EXPECT_EQ(stats.adm_admitted, 0u);
  ExpectAdmissionEquivalence(q, program, e, "missing-partition-attr");
}

// ---------------------------------------------------------------------------
// 4. Dispatch order: the analyzer's role map, flattened, is the reference
// ---------------------------------------------------------------------------

void ExpectDispatchOrderMatchesRoleMap(const CompiledQuery& q,
                                       const std::string& text) {
  const AdmissionProgram program(q);
  // The reference: the analyzer's role map flattened into a dense table
  // indexed by EventTypeId, entries pointing into q's node-stable role
  // storage — exactly what the retired role_table.h shim built.
  std::vector<const std::vector<Role>*> table;
  for (const auto& [type, roles] : q.roles()) {
    if (type >= table.size()) table.resize(type + 1, nullptr);
    table[type] = &roles;
  }
  // Probe well past the table: RolesFor must be empty exactly where the
  // role map has no entry.
  const EventTypeId limit = static_cast<EventTypeId>(table.size() + 8);
  for (EventTypeId type = 0; type < limit; ++type) {
    const std::vector<Role>* roles =
        type < table.size() ? table[type] : nullptr;
    const auto span = program.RolesFor(type);
    ASSERT_EQ(roles == nullptr ? size_t{0} : roles->size(), span.size())
        << text << " type " << type;
    EXPECT_EQ(program.Relevant(type), !span.empty()) << text;
    if (roles == nullptr) continue;
    for (size_t i = 0; i < roles->size(); ++i) {
      EXPECT_EQ(span[i].role.negated, (*roles)[i].negated)
          << text << " type " << type << " slot " << i;
      EXPECT_EQ(span[i].role.elem_index, (*roles)[i].elem_index)
          << text << " type " << type << " slot " << i;
      EXPECT_EQ(span[i].role.position, (*roles)[i].position)
          << text << " type " << type << " slot " << i;
    }
  }
}

TEST(AdmissionEquivalence, DispatchOrderMatchesRoleMap) {
  // Hand-picked shapes that stress the ordering rules (duplicate types at
  // several positions dispatch in descending position order; negation
  // roles follow positives in ascending gap order).
  const char* fixed[] = {
      "PATTERN SEQ(A, B)",
      "PATTERN SEQ(A, B, A, C)",
      "PATTERN SEQ(A, A, A)",
      "PATTERN SEQ(A, !X, B, !X, C)",
      "PATTERN SEQ(A, !B, C) GROUP BY g AGG COUNT WITHIN 10s",
      "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE QQQ.volume > 100 WITHIN 10s",
  };
  for (const char* text : fixed) {
    Schema schema;
    ExpectDispatchOrderMatchesRoleMap(MustCompile(&schema, text), text);
  }
  // Plus the random pool.
  std::mt19937 rng(271828);
  for (int iter = 0; iter < 60; ++iter) {
    Schema schema;
    const std::string text = RandomQueryText(&rng);
    Analyzer analyzer(&schema);
    auto compiled = analyzer.AnalyzeText(text);
    ASSERT_TRUE(compiled.ok()) << text;
    ExpectDispatchOrderMatchesRoleMap(std::move(compiled).value(), text);
  }
}

}  // namespace
}  // namespace aseq
