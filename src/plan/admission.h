#ifndef ASEQ_PLAN_ADMISSION_H_
#define ASEQ_PLAN_ADMISSION_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "common/value.h"
#include "container/key_interner.h"
#include "metrics/metrics.h"
#include "query/compiled_query.h"
#include "query/predicate.h"

namespace aseq {
namespace plan {

/// \brief One compiled local-predicate term (an admission opcode).
///
/// At compile time each WHERE term that names exactly one attribute of the
/// element and a literal of a concrete type is specialized to a typed,
/// branch-light form: the evaluator checks the event attribute's runtime
/// type once and compares raw int64/double/string payloads directly,
/// bypassing EvalCmp's Value dispatch. A numeric literal serves int64 and
/// double attributes alike, by Value::Equals/LessThan's cross-type rule: an
/// int64 attribute against an int64 literal compares as int64, every other
/// numeric pair as doubles. Everything else — attr-vs-attr terms on the
/// same element, null literals, and typed terms whose runtime attribute is
/// missing or of another kind (string attr vs numeric literal and the
/// like) — evaluates through the generic EvalCmp fallback, which preserves
/// the interpreted semantics bit-exactly (unordered combinations false for
/// all but `!=`).
struct CmpInsn {
  enum class Kind : uint8_t {
    kNumericLit,  // attr vs numeric literal (typed iff attr is numeric)
    kStringLit,   // attr vs string literal (typed iff attr is a string)
    kGeneric,     // anything else: EvalCmp on the original operands
  };

  Kind kind = Kind::kGeneric;
  CmpOp op = CmpOp::kEq;
  /// Typed forms: true when the attr ref is the lhs operand ("A.x > 5"),
  /// false when the literal is ("5 > A.x").
  bool attr_on_lhs = true;
  /// Numeric typed forms: the comparison as a 4-bit truth table over the
  /// attr-vs-literal outcome — bit 0 = pass on equal, bit 1 = pass on
  /// attr < literal, bit 2 = pass on attr > literal, bit 3 = pass on
  /// unordered (NaN). Compiled from (op, attr_on_lhs), so evaluation is a
  /// branchless three-way compare + table lookup: an indirect branch on
  /// `op` would retarget on every insn and eat its cost in mispredicts.
  uint8_t truth = 0;
  /// Typed forms: the referenced attribute.
  AttrId attr = kInvalidAttr;
  /// Literal payload for the matching typed kind: a numeric literal as a
  /// double, and also as an int64 when `int_lit` (its type is int64). The
  /// string literal borrows the query's own literal storage (the program
  /// never outlives its CompiledQuery).
  bool int_lit = false;
  int64_t i64 = 0;
  double f64 = 0;
  const std::string* str = nullptr;
  /// The original WHERE term, for the generic fallback.
  const Comparison* src = nullptr;
};

/// \brief One fused role record: everything admission needs to know about
/// an event type acting as one pattern element, resolved at compile time.
///
/// Fuses the three interpreted admission steps — QualifiesFor's predicate
/// walk, the aggregate-carrier validation, and PartitionKeyFor's coverage
/// bookkeeping — into one flat record evaluated in a single pass.
struct RoleProgram {
  Role role;  // negated / elem_index / position, as dispatched by engines
  /// Compiled local predicates: insns()[first_cmp, first_cmp + num_cmps).
  uint32_t first_cmp = 0;
  uint32_t num_cmps = 0;
  /// True when this element carries the aggregate (SUM/AVG/MIN/MAX):
  /// admission validates the carrier attribute is present and numeric and
  /// loads its double value into the record.
  bool is_carrier = false;
  AttrId carrier_attr = kInvalidAttr;
  /// Bit p set = partition part p covers this element (compile-time: part
  /// coverage depends only on the element index).
  uint64_t covered_mask = 0;
  /// Negated roles: covered_mask covers every part (a fully covered probe
  /// targets one partition; a partial one scans). Always true for positive
  /// roles — every part covers every positive element by construction.
  bool fully_covered = true;
};

/// \brief One admitted (role, event) pair: the compact per-event admission
/// record AdmitBatch emits.
///
/// Key part values are *borrowed* from the event (valid while the event
/// is), paired with their precomputed ValueHashes; the interning pass maps
/// them to dense ids (key/key_hash) when a KeyInterner is supplied.
struct AdmissionRecord {
  const RoleProgram* role = nullptr;
  /// ToDouble of the carrier attribute when role->is_carrier, else 0 —
  /// exactly the value the engines fed to OnStart/ApplyUpdate.
  double carrier = 0.0;
  /// Interned key + sealed InternedKeyHash (AdmitBatch with an interner
  /// only; meaningless for partially covered negated roles, which scan).
  container::InternedKey key;
  uint64_t key_hash = 0;
  /// Borrowed covered-part values (nullptr = part does not cover this
  /// element) and their ValueHashes.
  std::array<const Value*, container::kMaxKeyParts> part_vals;
  std::array<uint64_t, container::kMaxKeyParts> part_hashes;
};

/// \brief A CompiledQuery lowered to a flat per-event-type admission
/// program: a dense role table (EventTypeId-indexed, no hash probe), typed
/// comparison opcodes, and fused role records.
///
/// The program borrows the CompiledQuery's predicate and literal storage:
/// the query must outlive the program (engines own both, declared in that
/// order).
///
/// Admission semantics are bit-exact with the interpreted
/// CompiledQuery::QualifiesFor / PartitionKeyFor path; the differential
/// fuzz suite (tests/admission_equivalence_test.cc) pins that equivalence.
class AdmissionProgram {
 public:
  explicit AdmissionProgram(const CompiledQuery& query);

  // The program holds pointers into its own roles_ vector via the records
  // AdmitRole hands out only transiently; the program itself is safe to
  // copy/move (records must not outlive the program they came from).

  /// Roles played by `type`, in the query's canonical dispatch order
  /// (positive roles by descending position, then negation roles) — the
  /// same order CompiledQuery::FindRoles yields. Empty span = the type
  /// does not occur in the pattern.
  std::span<const RoleProgram> RolesFor(EventTypeId type) const {
    if (type >= spans_.size()) return {};
    const Span s = spans_[type];
    return {roles_.data() + s.first, s.count};
  }

  /// True when events of `type` can affect this query at all. Multi-query
  /// engines use this as a type-level early-out; BatchPrefilter gathers it
  /// columnarly over whole batches. Backed by a dense byte table so the
  /// per-event cost is one bounds check + one byte load.
  bool Relevant(EventTypeId type) const {
    return type < type_relevant_.size() && type_relevant_[type] != 0;
  }

  /// The role record for `type` acting as pattern element `elem_index`,
  /// or nullptr (oracle-style per-element lookup).
  const RoleProgram* FindRole(EventTypeId type, size_t elem_index) const {
    for (const RoleProgram& rp : RolesFor(type)) {
      if (rp.role.elem_index == elem_index) return &rp;
    }
    return nullptr;
  }

  size_t num_parts() const { return part_attrs_.size(); }
  bool partitioned() const { return !part_attrs_.empty(); }
  const std::vector<AttrId>& part_attrs() const { return part_attrs_; }
  uint64_t full_mask() const { return full_mask_; }
  const CompiledQuery& query() const { return *query_; }
  std::span<const CmpInsn> insns() const { return insns_; }

  /// Admits `e` for one role in a single fused pass: typed predicate
  /// evaluation, carrier validation + load, and partition-key extraction
  /// (borrowed values + ValueHashes into `rec`; `interner`, if given, is
  /// only prefetched — interning is the caller's batch pass). Returns
  /// false when the event does not qualify or a covering part's attribute
  /// is missing/null. Counters accrue on `stats` when non-null.
  bool AdmitRole(const Event& e, const RoleProgram& rp, AdmissionRecord* rec,
                 EngineStats* stats,
                 const container::KeyInterner* interner = nullptr) const;

  /// Materializes a record's borrowed parts into a PartitionKey (+ optional
  /// per-part coverage flags), reusing the scratch's existing capacity —
  /// exactly PartitionKeyFor's output, minus the per-call reallocation.
  void MaterializeKey(const AdmissionRecord& rec, PartitionKey* key,
                      std::vector<bool>* covered_out = nullptr) const;

 private:
  struct Span {
    uint32_t first = 0;
    uint32_t count = 0;
  };

  void CompileRole(const Role& role);
  CmpInsn CompileCmp(const Comparison& cmp) const;

  const CompiledQuery* query_ = nullptr;
  std::vector<RoleProgram> roles_;  // grouped by type, dispatch order
  std::vector<Span> spans_;         // EventTypeId-indexed
  /// Dense EventTypeId-indexed relevance bytes (1 = the type plays a role
  /// in the pattern). Mirrors spans_, in a form the prefilter's columnar
  /// pass can gather without touching span metadata.
  std::vector<uint8_t> type_relevant_;
  std::vector<CmpInsn> insns_;
  std::vector<AttrId> part_attrs_;  // partition part attributes, in order
  uint64_t full_mask_ = 0;
};

/// \brief Vectorized admission prefilter: one columnar pass over a batch's
/// event types against a program's relevance table, producing a per-event
/// admit bitmask (bit i set = batch[i] can stage a record for the query).
///
/// The pass touches only the event-type column and a dense byte table, so
/// it runs at memory speed and vectorizes; consumers then skip the
/// role-table walk for masked-out events entirely. BatchAdmitter accepts
/// the mask (see AdmitBatch) and the shard routers use the whole-batch
/// early-out: a query none of whose bits are set is not admitted at all
/// for that batch. The mask is exactly `program.Relevant(type)` per event,
/// so consuming it is bit-exact with the unfiltered walk — irrelevant
/// events can never produce an admission record.
class BatchPrefilter {
 public:
  /// Rebuilds the mask for `batch` against `program`. Returns the number
  /// of relevant events (0 = the whole batch is invisible to the query).
  size_t Scan(const AdmissionProgram& program, std::span<const Event> batch);

  /// Whether batch event `i` of the last Scan is relevant.
  bool Relevant(size_t i) const {
    return ((mask_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  size_t relevant_count() const { return relevant_; }
  std::span<const uint64_t> mask() const { return mask_; }

 private:
  std::vector<uint64_t> mask_;  // ceil(batch/64) words, clear-not-shrink
  size_t relevant_ = 0;
};

/// \brief Per-event spans into BatchAdmitter's record array.
struct EventAdmission {
  uint32_t first_record = 0;
  uint32_t num_records = 0;
};

/// \brief Batched columnar admission: runs an AdmissionProgram over an
/// event span and emits compact per-event admission records.
///
/// Per (event, role): fused qualify + extract + carrier load, with the
/// key-part ValueHashes prefetching the interner slots they will probe;
/// each admitted record is then interned on the spot, while it is still
/// hot and the prefetches are in flight. Interning runs in record
/// (= arrival/probe) order: positive roles intern unseen values (they may
/// create partitions), negated roles use non-mutating lookups (a miss
/// yields kNoId, which matches no live partition) — id assignment stays a
/// pure function of the event stream, so checkpoints and the shard router
/// can speak in ids — then each targeting record's InternedKeyHash is
/// sealed.
///
/// Scratch is reused (clear-not-shrink) across batches: admission after
/// warm-up performs zero allocations.
class BatchAdmitter {
 public:
  /// Admits every event of `batch`. `interner` is optional: without one,
  /// interning is skipped and records carry only borrowed values + hashes
  /// (the shard router and the match-constructing engines intern or copy
  /// themselves). Counters accrue on `stats` when non-null. `prefilter`,
  /// when given, must hold a Scan of this (program, batch): masked-out
  /// events skip the role-table walk and emit an empty record span —
  /// bit-exact with the unfiltered pass, since the mask is the program's
  /// own type-relevance predicate.
  void AdmitBatch(const AdmissionProgram& program, std::span<const Event> batch,
                  container::KeyInterner* interner, EngineStats* stats,
                  const BatchPrefilter* prefilter = nullptr);

  std::span<const AdmissionRecord> records() const {
    return {records_.data(), used_};
  }
  std::span<const EventAdmission> events() const { return events_; }

  /// The admitted records of batch event `i`.
  std::span<const AdmissionRecord> RecordsFor(size_t i) const {
    const EventAdmission& ea = events_[i];
    return {records_.data() + ea.first_record, ea.num_records};
  }

 private:
  /// Record slots are recycled in place across batches (high-water sizing,
  /// no per-candidate construction): a rejected candidate costs nothing,
  /// an admitted one only the fields AdmitRole writes.
  std::vector<AdmissionRecord> records_;
  size_t used_ = 0;
  std::vector<EventAdmission> events_;
};

}  // namespace plan
}  // namespace aseq

#endif  // ASEQ_PLAN_ADMISSION_H_
