#include "query/analyzer.h"

#include <algorithm>

#include "query/parser.h"

namespace aseq {

namespace {

/// Value of an operand evaluated against a single event (local predicates).
const Value& OperandValue(const Operand& op, const Event& e) {
  static const Value kNull;
  if (op.is_attr_ref()) return e.GetAttr(op.attr);
  return op.literal;
}

}  // namespace

bool CompiledQuery::QualifiesFor(const Event& e, size_t elem_index) const {
  if (elem_index >= local_preds_.size()) return false;
  for (const Comparison& cmp : local_preds_[elem_index]) {
    if (!EvalCmp(cmp.op, OperandValue(cmp.lhs, e), OperandValue(cmp.rhs, e))) {
      return false;
    }
  }
  if (agg_positive_pos_ >= 0 &&
      static_cast<int>(elem_index) == query_.agg.elem_index) {
    // SUM/AVG/MIN/MAX carrier instances must have a numeric value.
    const Value* v = e.FindAttr(query_.agg.attr);
    if (v == nullptr || !v->is_numeric()) return false;
  }
  return true;
}

bool CompiledQuery::PartitionKeyFor(const Event& e, size_t elem_index,
                                    PartitionKey* key,
                                    std::vector<bool>* covered_out) const {
  const size_t n = partition_spec_.parts.size();
  // Resize-and-assign into the caller's scratch: slot capacity (string
  // payloads included) survives across calls, so a reused key allocates
  // nothing once warm — clear()+push_back discarded it every call.
  key->parts.resize(n);
  if (covered_out != nullptr) covered_out->assign(n, false);
  for (size_t p = 0; p < n; ++p) {
    const PartitionSpec::Part& part = partition_spec_.parts[p];
    const bool covers = elem_index < part.covers_elem.size() &&
                        part.covers_elem[elem_index];
    if (covers) {
      const Value* v = e.FindAttr(part.attr);
      if (v == nullptr || v->is_null()) return false;
      key->parts[p] = *v;
      if (covered_out != nullptr) (*covered_out)[p] = true;
    } else {
      key->parts[p] = Value();  // null placeholder: matches any partition
    }
  }
  return true;
}

Result<CompiledQuery> Analyzer::AnalyzeText(std::string_view query_text) {
  ASEQ_ASSIGN_OR_RETURN(Query q, ParseQuery(query_text));
  return Analyze(q);
}

Result<CompiledQuery> Analyzer::Analyze(const Query& query) {
  CompiledQuery cq;
  cq.query_ = query;
  Query& q = cq.query_;
  auto& elems = q.pattern.elements();

  // --- Pattern validation & resolution -------------------------------------
  if (elems.empty()) {
    return Status::InvalidArgument("pattern must have at least one element");
  }
  if (elems.front().negated) {
    return Status::InvalidArgument(
        "pattern must not start with a negated event type (negation asserts "
        "non-occurrence between matched positive events)");
  }
  if (elems.back().negated) {
    return Status::InvalidArgument(
        "pattern must not end with a negated event type");
  }
  size_t positives = 0;
  for (size_t i = 0; i < elems.size(); ++i) {
    PatternElement& e = elems[i];
    if (e.type_name.empty()) {
      return Status::InvalidArgument("empty event type name in pattern");
    }
    e.type = schema_->RegisterEventType(e.type_name);
    if (!e.negated) {
      ++positives;
      cq.positive_types_.push_back(e.type);
      Role role;
      role.negated = false;
      role.elem_index = i;
      role.position = positives;  // 1-based
      cq.roles_[e.type].push_back(role);
    }
  }
  // Negation roles (gap = number of positive elements before the element).
  size_t seen_positives = 0;
  for (size_t i = 0; i < elems.size(); ++i) {
    if (!elems[i].negated) {
      ++seen_positives;
      continue;
    }
    Role role;
    role.negated = true;
    role.elem_index = i;
    role.position = seen_positives;  // reset prefix of this length
    cq.roles_[elems[i].type].push_back(role);
  }
  // Positive roles must be applied in descending position order so a type
  // occurring at several positions never consumes its own same-arrival
  // update; negated roles come after positive roles (a new instance first
  // extends prefixes with pre-arrival counts, then invalidates).
  for (auto& [type, roles] : cq.roles_) {
    std::stable_sort(roles.begin(), roles.end(),
                     [](const Role& a, const Role& b) {
                       if (a.negated != b.negated) return !a.negated;
                       if (!a.negated) return a.position > b.position;
                       return a.position < b.position;
                     });
  }
  cq.local_preds_.resize(elems.size());

  // --- Resolve WHERE --------------------------------------------------------
  // Resolves one attr ref in place; returns the element index.
  auto resolve_ref = [&](Operand* op) -> Result<size_t> {
    int found = -1;
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i].type_name == op->elem_name) {
        if (found >= 0) {
          return Status::InvalidArgument(
              "ambiguous reference '" + op->elem_name +
              "': event type occurs more than once in the pattern");
        }
        found = static_cast<int>(i);
      }
    }
    if (found < 0) {
      return Status::InvalidArgument("reference to '" + op->elem_name +
                                     "' which is not in the pattern");
    }
    op->elem_index = found;
    op->attr = schema_->RegisterAttribute(op->attr_name);
    return static_cast<size_t>(found);
  };

  // Equivalence candidates: (attr id, elem a, elem b).
  struct EquivPair {
    AttrId attr;
    size_t a, b;
    Comparison cmp;  // retained so demotion to join predicate keeps the term
  };
  std::vector<EquivPair> equiv_pairs;

  // The stored query's terms are resolved in place; the classified
  // predicates are copies of them.
  for (Comparison& term : q.where.terms) {
    bool lref = term.lhs.is_attr_ref();
    bool rref = term.rhs.is_attr_ref();
    if (!lref && !rref) {
      if (!EvalCmp(term.op, term.lhs.literal, term.rhs.literal)) {
        return Status::InvalidArgument("WHERE clause is constantly false: " +
                                       term.ToString());
      }
      continue;  // constantly true; drop
    }
    size_t le = 0, re = 0;
    if (lref) {
      ASEQ_ASSIGN_OR_RETURN(le, resolve_ref(&term.lhs));
    }
    if (rref) {
      ASEQ_ASSIGN_OR_RETURN(re, resolve_ref(&term.rhs));
    }
    Comparison cmp = term;
    if (lref && rref && le != re) {
      if (cmp.op == CmpOp::kEq && cmp.lhs.attr == cmp.rhs.attr) {
        equiv_pairs.push_back(EquivPair{cmp.lhs.attr, le, re, cmp});
      } else {
        cq.join_preds_.push_back(std::move(cmp));
      }
      continue;
    }
    size_t elem = lref ? le : re;
    cq.local_preds_[elem].push_back(std::move(cmp));
  }

  // --- Equivalence classes → partition parts --------------------------------
  // Union-find over (attr, elem) pairs; one class per attribute.
  struct Class {
    AttrId attr;
    std::vector<bool> covers;
    std::vector<Comparison> terms;
  };
  std::vector<Class> classes;
  for (const EquivPair& p : equiv_pairs) {
    Class* cls = nullptr;
    for (Class& c : classes) {
      if (c.attr == p.attr) {
        cls = &c;
        break;
      }
    }
    if (cls == nullptr) {
      classes.push_back(Class{p.attr, std::vector<bool>(elems.size(), false), {}});
      cls = &classes.back();
    }
    cls->covers[p.a] = true;
    cls->covers[p.b] = true;
    cls->terms.push_back(p.cmp);
  }
  // NOTE: distinct chains on the same attribute merge into one class. Two
  // disjoint chains `A.id=B.id AND C.id=D.id` would over-constrain if merged;
  // such patterns fall outside the paper's model and a merged class either
  // covers all positives (then it genuinely is one equivalence class as far
  // as HPC partitioning is concerned only if the user meant that) or is
  // demoted to join predicates below. We accept this simplification and
  // verify engine-vs-oracle agreement under the *compiled* semantics.
  for (Class& c : classes) {
    bool all_positive_covered = true;
    for (size_t i = 0; i < elems.size(); ++i) {
      if (!elems[i].negated && !c.covers[i]) all_positive_covered = false;
    }
    if (all_positive_covered) {
      PartitionSpec::Part part;
      part.attr = c.attr;
      part.attr_name = schema_->AttributeName(c.attr);
      part.is_group_by = false;
      part.covers_elem = c.covers;
      cq.partition_spec_.parts.push_back(std::move(part));
    } else {
      // Partial coverage: A-Seq cannot partition on it; keep as join preds.
      for (Comparison& t : c.terms) cq.join_preds_.push_back(std::move(t));
    }
  }

  // Join predicates are evaluated on constructed matches; a negated element
  // has no bound instance there. Cross-element predicates touching negated
  // elements are only meaningful as full equivalence classes.
  for (const Comparison& cmp : cq.join_preds_) {
    for (const Operand* op : {&cmp.lhs, &cmp.rhs}) {
      if (op->is_attr_ref() && elems[op->elem_index].negated) {
        return Status::InvalidArgument(
            "predicate '" + cmp.ToString() +
            "' references a negated element; only local predicates or full "
            "equivalence classes may constrain negated event types");
      }
    }
  }

  // --- GROUP BY --------------------------------------------------------------
  if (q.group_by.has_value()) {
    q.group_by->attr = schema_->RegisterAttribute(q.group_by->attr_name);
    PartitionSpec::Part part;
    part.attr = q.group_by->attr;
    part.attr_name = q.group_by->attr_name;
    part.is_group_by = true;
    part.covers_elem.assign(elems.size(), true);
    cq.partition_spec_.group_part =
        static_cast<int>(cq.partition_spec_.parts.size());
    cq.partition_spec_.parts.push_back(std::move(part));
    cq.partition_spec_.per_group_output = true;
  }

  // --- AGG -------------------------------------------------------------------
  if (q.agg.func != AggFunc::kCount) {
    int found = -1;
    for (size_t i = 0; i < elems.size(); ++i) {
      if (elems[i].type_name == q.agg.elem_name) {
        if (found >= 0) {
          return Status::InvalidArgument(
              "ambiguous aggregate reference '" + q.agg.elem_name + "'");
        }
        found = static_cast<int>(i);
      }
    }
    if (found < 0) {
      return Status::InvalidArgument("aggregate references '" +
                                     q.agg.elem_name +
                                     "' which is not in the pattern");
    }
    if (elems[found].negated) {
      return Status::InvalidArgument(
          "aggregate must reference a positive pattern element");
    }
    q.agg.elem_index = found;
    q.agg.attr = schema_->RegisterAttribute(q.agg.attr_name);
    // 0-based positive position of the carrier.
    int pos = 0;
    for (int i = 0; i < found; ++i) {
      if (!elems[i].negated) ++pos;
    }
    cq.agg_positive_pos_ = pos;
  }

  if (q.window_ms < 0) {
    return Status::InvalidArgument("window must be non-negative");
  }
  return cq;
}

}  // namespace aseq
