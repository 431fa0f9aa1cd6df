#include "plan/admission.h"

#include <cassert>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "fault/fault.h"

namespace aseq {
namespace plan {

namespace {

/// Value of an operand evaluated against a single event — the generic
/// fallback mirrors the interpreted QualifiesFor exactly (a missing
/// attribute reads as a null Value).
const Value& OperandValue(const Operand& op, const Event& e) {
  if (op.is_attr_ref()) return e.GetAttr(op.attr);
  return op.literal;
}

/// Relational compare over raw payloads, phrased exactly as EvalCmp
/// phrases it over Values (kLe = !(b < a), kGe = !(a < b)) so the typed
/// paths agree with the interpreted path on every input — including
/// NaN doubles, where a naive `a <= b` would diverge.
template <typename T>
bool OrderedCmp(CmpOp op, const T& a, const T& b) {
  switch (op) {
    case CmpOp::kEq:
      return a == b;
    case CmpOp::kNe:
      return !(a == b);
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kLe:
      return !(b < a);
    case CmpOp::kGt:
      return b < a;
    case CmpOp::kGe:
      return !(a < b);
  }
  return false;
}

/// CmpInsn::truth bit positions (see the field comment). The unordered
/// outcome encodes EvalCmp's NaN behaviour: ops phrased as negated
/// comparisons (kNe, kLe, kGe) pass on NaN, the rest fail.
constexpr uint8_t kPassEq = 1u << 0;
constexpr uint8_t kPassLt = 1u << 1;
constexpr uint8_t kPassGt = 1u << 2;
constexpr uint8_t kPassUo = 1u << 3;

uint8_t TruthTableFor(CmpOp op, bool attr_on_lhs) {
  uint8_t t = 0;
  switch (op) {
    case CmpOp::kEq:
      t = kPassEq;
      break;
    case CmpOp::kNe:
      t = kPassLt | kPassGt | kPassUo;
      break;
    case CmpOp::kLt:
      t = kPassLt;
      break;
    case CmpOp::kLe:  // !(b < a): also passes on unordered
      t = kPassEq | kPassLt | kPassUo;
      break;
    case CmpOp::kGt:
      t = kPassGt;
      break;
    case CmpOp::kGe:  // !(a < b): also passes on unordered
      t = kPassEq | kPassGt | kPassUo;
      break;
  }
  if (!attr_on_lhs) {
    // Literal-on-lhs ("5 > A.x") evaluated attr-centrically: mirror the
    // ordering bits (lit > attr ⇔ attr < lit); equal/unordered symmetric.
    const uint8_t lt = (t & kPassLt) != 0 ? kPassGt : 0;
    const uint8_t gt = (t & kPassGt) != 0 ? kPassLt : 0;
    t = (t & (kPassEq | kPassUo)) | lt | gt;
  }
  return t;
}

/// Branchless truth-table evaluation: outcome index 0 = equal, 1 = less,
/// 2 = greater, 3 = unordered (NaN compares all-false).
inline bool TruthCmp(uint8_t truth, int64_t av, int64_t lit) {
  const int l = av < lit ? 1 : 0;
  const int g = av > lit ? 1 : 0;
  return ((truth >> (l + 2 * g)) & 1) != 0;
}

inline bool TruthCmp(uint8_t truth, double av, double lit) {
  const int l = av < lit ? 1 : 0;
  const int g = av > lit ? 1 : 0;
  const int e = av == lit ? 1 : 0;
  return ((truth >> (l + 2 * g + 3 * (1 - l - g - e))) & 1) != 0;
}

}  // namespace

AdmissionProgram::AdmissionProgram(const CompiledQuery& query)
    : query_(&query) {
  const PartitionSpec& spec = query.partition_spec();
  part_attrs_.reserve(spec.parts.size());
  for (const PartitionSpec::Part& part : spec.parts) {
    part_attrs_.push_back(part.attr);
  }
  full_mask_ = (uint64_t{1} << part_attrs_.size()) - 1;

  // Dense role table, ascending type id; within a type the query's
  // canonical dispatch order (FindRoles) is preserved verbatim.
  EventTypeId max_type = 0;
  for (const auto& [type, roles] : query.roles()) {
    max_type = std::max(max_type, type);
  }
  spans_.resize(query.roles().empty() ? 0 : max_type + 1);
  type_relevant_.assign(spans_.size(), 0);
  for (EventTypeId type = 0; type < spans_.size(); ++type) {
    const std::vector<Role>* roles = query.FindRoles(type);
    if (roles == nullptr) continue;
    spans_[type].first = static_cast<uint32_t>(roles_.size());
    for (const Role& role : *roles) CompileRole(role);
    spans_[type].count =
        static_cast<uint32_t>(roles_.size()) - spans_[type].first;
    type_relevant_[type] = spans_[type].count != 0 ? 1 : 0;
  }
}

CmpInsn AdmissionProgram::CompileCmp(const Comparison& cmp) const {
  CmpInsn insn;
  insn.op = cmp.op;
  insn.src = &cmp;
  // Typed specialization applies when exactly one operand is an attribute
  // reference and the other a literal of a concrete type; the typed form
  // still falls back to EvalCmp at runtime if the attribute's value is not
  // of the literal's kind (missing attr, string vs numeric, ...).
  const Operand* attr_op = nullptr;
  const Operand* lit_op = nullptr;
  if (cmp.lhs.is_attr_ref() && !cmp.rhs.is_attr_ref()) {
    attr_op = &cmp.lhs;
    lit_op = &cmp.rhs;
    insn.attr_on_lhs = true;
  } else if (!cmp.lhs.is_attr_ref() && cmp.rhs.is_attr_ref()) {
    attr_op = &cmp.rhs;
    lit_op = &cmp.lhs;
    insn.attr_on_lhs = false;
  }
  if (attr_op == nullptr) return insn;  // attr-vs-attr or literal-vs-literal
  switch (lit_op->literal.type()) {
    case ValueType::kInt64:
      insn.int_lit = true;
      insn.i64 = lit_op->literal.AsInt64();
      [[fallthrough]];
    case ValueType::kDouble:
      insn.kind = CmpInsn::Kind::kNumericLit;
      insn.f64 = lit_op->literal.ToDouble();
      break;
    case ValueType::kString:
      insn.kind = CmpInsn::Kind::kStringLit;
      insn.str = &lit_op->literal.AsString();
      break;
    case ValueType::kNull:
      break;  // null literal: generic
  }
  if (insn.kind != CmpInsn::Kind::kGeneric) {
    insn.attr = attr_op->attr;
    insn.truth = TruthTableFor(insn.op, insn.attr_on_lhs);
  }
  return insn;
}

void AdmissionProgram::CompileRole(const Role& role) {
  RoleProgram rp;
  rp.role = role;
  rp.first_cmp = static_cast<uint32_t>(insns_.size());
  const auto& local_preds = query_->local_predicates();
  if (role.elem_index < local_preds.size()) {
    for (const Comparison& cmp : local_preds[role.elem_index]) {
      insns_.push_back(CompileCmp(cmp));
    }
  }
  rp.num_cmps = static_cast<uint32_t>(insns_.size()) - rp.first_cmp;
  const AggregateSpec& agg = query_->agg();
  if (query_->agg_positive_pos() >= 0 &&
      static_cast<int>(role.elem_index) == agg.elem_index) {
    rp.is_carrier = true;
    rp.carrier_attr = agg.attr;
  }
  const auto& parts = query_->partition_spec().parts;
  for (size_t p = 0; p < parts.size(); ++p) {
    const bool covers = role.elem_index < parts[p].covers_elem.size() &&
                        parts[p].covers_elem[role.elem_index];
    if (covers) rp.covered_mask |= uint64_t{1} << p;
  }
  rp.fully_covered = role.negated ? rp.covered_mask == full_mask_ : true;
  roles_.push_back(rp);
}

bool AdmissionProgram::AdmitRole(const Event& e, const RoleProgram& rp,
                                 AdmissionRecord* rec, EngineStats* stats,
                                 const container::KeyInterner* interner) const {
  // Qualify: typed opcodes over the element's local predicates. The
  // attribute lookup is cached across consecutive insns on the same attr
  // (range predicates on one attribute are the common shape).
  AttrId cached_attr = kInvalidAttr;
  const Value* cached_val = nullptr;
  const CmpInsn* insn = insns_.data() + rp.first_cmp;
  for (const CmpInsn* end = insn + rp.num_cmps; insn != end; ++insn) {
    bool pass;
    if (insn->kind == CmpInsn::Kind::kGeneric) {
      if (stats != nullptr) ++stats->adm_generic_cmps;
      pass = EvalCmp(insn->src->op, OperandValue(insn->src->lhs, e),
                     OperandValue(insn->src->rhs, e));
    } else {
      if (insn->attr != cached_attr) {
        cached_attr = insn->attr;
        cached_val = e.FindAttr(insn->attr);
      }
      const Value* v = cached_val;
      switch (insn->kind) {
        case CmpInsn::Kind::kNumericLit:
          // Value::Equals/LessThan's rule: int64 vs int64 literal compares
          // as int64, every other numeric pair as doubles.
          if (v != nullptr && v->type() == ValueType::kInt64 &&
              insn->int_lit) {
            pass = TruthCmp(insn->truth, v->AsInt64(), insn->i64);
            break;
          }
          if (v != nullptr && v->is_numeric()) {
            pass = TruthCmp(insn->truth, v->ToDouble(), insn->f64);
            break;
          }
          goto fallback;
        case CmpInsn::Kind::kStringLit:
          if (v != nullptr && v->type() == ValueType::kString) {
            pass = insn->attr_on_lhs
                       ? OrderedCmp(insn->op, v->AsString(), *insn->str)
                       : OrderedCmp(insn->op, *insn->str, v->AsString());
            break;
          }
          goto fallback;
        default:
        fallback:
          // Runtime kind differs from the literal's: the generic path owns
          // the unordered-combination rules.
          if (stats != nullptr) ++stats->adm_generic_cmps;
          pass = EvalCmp(insn->src->op, OperandValue(insn->src->lhs, e),
                         OperandValue(insn->src->rhs, e));
          break;
      }
    }
    if (!pass) {
      if (stats != nullptr) ++stats->adm_rejected_local;
      return false;
    }
  }
  // Carrier validation + fused load (QualifiesFor's trailing check).
  double carrier = 0.0;
  if (rp.is_carrier) {
    const Value* v = e.FindAttr(rp.carrier_attr);
    if (v == nullptr || !v->is_numeric()) {
      if (stats != nullptr) ++stats->adm_rejected_local;
      return false;
    }
    carrier = v->ToDouble();
  }
  // Partition-key extraction: borrowed values + ValueHashes
  // (PartitionKeyFor semantics minus the Value copies), prefetching the
  // interner slots the hashes will probe.
  const size_t n = part_attrs_.size();
  for (size_t p = 0; p < n; ++p) {
    if (((rp.covered_mask >> p) & 1) == 0) {
      rec->part_vals[p] = nullptr;  // key slot stays kNoId: matches any
      continue;
    }
    const Value* v = e.FindAttr(part_attrs_[p]);
    if (v == nullptr || v->is_null()) {
      if (stats != nullptr) ++stats->adm_missing_attr;
      return false;
    }
    const uint64_t vh = ValueHash{}(*v);
    rec->part_vals[p] = v;
    rec->part_hashes[p] = vh;
    if (interner != nullptr) interner->PrefetchSlot(vh);
  }
  rec->role = &rp;
  rec->carrier = carrier;
  // key / key_hash are deliberately NOT reset here: they are meaningful
  // only after AdmitBatch's interning pass, which (re)writes every part
  // slot below num_parts; slots above never hold anything but kNoId.
  if (stats != nullptr) ++stats->adm_admitted;
  return true;
}

void AdmissionProgram::MaterializeKey(const AdmissionRecord& rec,
                                      PartitionKey* key,
                                      std::vector<bool>* covered_out) const {
  const size_t n = part_attrs_.size();
  key->parts.resize(n);
  if (covered_out != nullptr) covered_out->resize(n);
  for (size_t p = 0; p < n; ++p) {
    const Value* v = rec.part_vals[p];
    if (v != nullptr) {
      key->parts[p] = *v;
    } else {
      key->parts[p] = Value();  // null placeholder: matches any partition
    }
    if (covered_out != nullptr) (*covered_out)[p] = v != nullptr;
  }
}

namespace {

/// Interns one freshly admitted record's borrowed parts and seals its key
/// hash. Runs immediately after the record's AdmitRole, while the record
/// is still in L1 and the prefetches AdmitRole issued for its interner
/// slots are in flight — and in record (= arrival/probe) order, so id
/// assignment stays a pure function of the event stream.
inline void InternRecord(size_t num_parts, container::KeyInterner* interner,
                         AdmissionRecord* rec) {
  const bool negated = rec->role->role.negated;
  // Every part slot below num_parts is written (uncovered ⇒ kNoId), so
  // recycled records cannot leak stale ids into the key compare or its
  // hash; slots at num_parts and above keep their constructed kNoId.
  for (size_t p = 0; p < num_parts; ++p) {
    const Value* v = rec->part_vals[p];
    rec->key.ids[p] =
        v == nullptr ? container::kNoId
        : negated    ? interner->LookupHashed(rec->part_hashes[p], *v)
                     : interner->InternHashed(rec->part_hashes[p], *v);
  }
  if (negated && !rec->role->fully_covered) {
    rec->key_hash = 0;  // scans; no target — and no stale recycled hash
    return;
  }
  rec->key_hash = container::InternedKeyHash{}(rec->key);
}

}  // namespace

size_t BatchPrefilter::Scan(const AdmissionProgram& program,
                            std::span<const Event> batch) {
  const size_t words = (batch.size() + 63) / 64;
  mask_.assign(words, 0);
  size_t relevant = 0;
  // Columnar pass: one byte-table load per event, accumulated into the
  // bitmask word-at-a-time. Nothing here depends on admission state, so
  // the loop is pure gather + or — the compiler's to vectorize.
  for (size_t i = 0; i < batch.size(); ++i) {
    const uint64_t bit = program.Relevant(batch[i].type()) ? 1u : 0u;
    mask_[i >> 6] |= bit << (i & 63);
    relevant += bit;
  }
  relevant_ = relevant;
  return relevant;
}

void BatchAdmitter::AdmitBatch(const AdmissionProgram& program,
                               std::span<const Event> batch,
                               container::KeyInterner* interner,
                               EngineStats* stats,
                               const BatchPrefilter* prefilter) {
  if (fault::Injector::Global().armed()) {
    if (auto fired = fault::Injector::Global().Hit(fault::Point::kAdmitBatch)) {
      if (fired->kind == fault::Kind::kCrash) {
        std::_Exit(fault::kCrashExitCode);
      }
      if (fired->kind == fault::Kind::kSlow) {
        std::this_thread::sleep_for(std::chrono::microseconds(fired->delay_us));
      }
    }
  }
  used_ = 0;
  events_.clear();
  if (events_.capacity() < batch.size()) events_.reserve(batch.size());
  const size_t n = program.num_parts();
  // Fused qualify + extract + carrier load per (event, role), each admitted
  // record interned on the spot (see InternRecord). Record slots are
  // recycled in place: a rejected candidate writes nothing durable.
  for (size_t i = 0; i < batch.size(); ++i) {
    EventAdmission ea;
    ea.first_record = static_cast<uint32_t>(used_);
    // The prefilter's bitmask replaces the role-table walk for events whose
    // type plays no role: the span would come back empty anyway, so the
    // skip is exact — it only saves the lookup.
    if (prefilter == nullptr || prefilter->Relevant(i)) {
      const Event& e = batch[i];
      for (const RoleProgram& rp : program.RolesFor(e.type())) {
        if (used_ == records_.size()) records_.emplace_back();
        if (program.AdmitRole(e, rp, &records_[used_], stats, interner)) {
          if (interner != nullptr) InternRecord(n, interner, &records_[used_]);
          ++used_;
        }
      }
    }
    ea.num_records = static_cast<uint32_t>(used_) - ea.first_record;
    events_.push_back(ea);
  }
}

}  // namespace plan
}  // namespace aseq
