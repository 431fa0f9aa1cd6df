#ifndef ASEQ_QUERY_COMPILED_QUERY_H_
#define ASEQ_QUERY_COMPILED_QUERY_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/event.h"
#include "common/hash_mix.h"
#include "common/schema.h"
#include "query/query.h"

namespace aseq {

/// \brief A composite partition key: one Value per PartitionSpec part.
///
/// Used by the Hashed Prefix Counter (Sec. 3.4) to route events to
/// equivalence / GROUP BY partitions.
struct PartitionKey {
  std::vector<Value> parts;

  bool operator==(const PartitionKey& other) const {
    if (parts.size() != other.parts.size()) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!parts[i].Equals(other.parts[i])) return false;
    }
    return true;
  }

  std::string ToString() const {
    std::string out;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) out += "|";
      out += parts[i].ToString();
    }
    return out;
  }
};

struct PartitionKeyHash {
  size_t operator()(const PartitionKey& k) const {
    // HashCombine64 re-avalanches after every part: the old xor-shift fold
    // let a part cancel another and left the low bits weak, which the
    // flat-store probing (src/container/flat_map.h) cannot tolerate.
    size_t h = 0x9e3779b97f4a7c15ULL;
    for (const Value& v : k.parts) {
      h = HashCombine64(h, v.Hash());
    }
    return h;
  }
};

/// \brief How the query partitions its state (equivalence predicates and/or
/// GROUP BY), per Sec. 3.4.
///
/// Each part contributes one attribute to the composite partition key.
/// Positive elements are always covered by every part (the Analyzer rejects
/// partial coverage as a join predicate); negated elements may be outside a
/// part, in which case a negative instance invalidates every partition whose
/// key matches on the parts that *do* cover it.
struct PartitionSpec {
  struct Part {
    AttrId attr = kInvalidAttr;
    std::string attr_name;
    bool is_group_by = false;
    /// Per pattern-element index: does this part constrain the element?
    std::vector<bool> covers_elem;
  };

  std::vector<Part> parts;

  bool empty() const { return parts.empty(); }

  /// True when results are reported per group (GROUP BY present).
  bool per_group_output = false;
  /// Index in `parts` of the GROUP BY part, or -1.
  int group_part = -1;
};

/// \brief One role an event type plays in a pattern.
///
/// Positive role at 1-based position `position` of the positive
/// subsequence; or a negation role that, per the Recounting Rule (Lemma 6),
/// resets the prefix count of length `gap` (the number of positive elements
/// before the negated element).
struct Role {
  bool negated = false;
  size_t elem_index = 0;  // index into pattern.elements()
  size_t position = 0;    // positive: 1..L; negated: reset prefix length gap
};

/// \brief An analyzed, schema-resolved query ready for execution.
///
/// Produced by Analyzer::Analyze; consumed by every engine (A-Seq, the
/// stack-based baseline, and the multi-query engines).
class CompiledQuery {
 public:
  CompiledQuery() = default;

  const Query& query() const { return query_; }
  const Pattern& pattern() const { return query_.pattern; }
  const AggregateSpec& agg() const { return query_.agg; }
  Timestamp window_ms() const { return query_.window_ms; }
  bool has_window() const { return query_.window_ms > 0; }

  /// Positive event types in pattern order (length L).
  const std::vector<EventTypeId>& positive_types() const {
    return positive_types_;
  }
  size_t num_positive() const { return positive_types_.size(); }

  /// Roles played by `type`, positive roles in descending position order
  /// (so duplicate-type updates are applied safely), then negation roles.
  /// Returns nullptr if the type does not occur in the pattern.
  const std::vector<Role>* FindRoles(EventTypeId type) const {
    auto it = roles_.find(type);
    return it == roles_.end() ? nullptr : &it->second;
  }

  /// Full role table (engines build flat per-type-id dispatch tables from
  /// this to skip the hash probe on the per-event hot path).
  const std::unordered_map<EventTypeId, std::vector<Role>>& roles() const {
    return roles_;
  }

  /// Local-predicate filter: does `e` qualify for the pattern element at
  /// `elem_index`? (Sec. 3.4, "Local Predicates": non-qualifying instances
  /// are discarded before aggregation.) For non-COUNT aggregates the carrier
  /// element additionally requires a numeric aggregated attribute.
  bool QualifiesFor(const Event& e, size_t elem_index) const;

  /// Partitioning state (equivalence predicates / GROUP BY).
  const PartitionSpec& partition_spec() const { return partition_spec_; }
  bool partitioned() const { return !partition_spec_.empty(); }

  /// Builds the partition key for an event acting as pattern element
  /// `elem_index`. Returns false if a covering part's attribute is missing
  /// from the event (the event is then ignored for that role).
  /// `covered_out`, if non-null, receives per-part coverage flags (parts not
  /// covering this element get a null key slot and `false` coverage —
  /// meaningful only for negated roles, which then invalidate every
  /// partition matching on the covered parts).
  bool PartitionKeyFor(const Event& e, size_t elem_index, PartitionKey* key,
                       std::vector<bool>* covered_out = nullptr) const;

  /// Cross-element predicates that are not equivalence tests. A-Seq cannot
  /// push these into prefix counting; only match-constructing engines
  /// support them.
  const std::vector<Comparison>& join_predicates() const { return join_preds_; }
  bool has_join_predicates() const { return !join_preds_.empty(); }

  /// 0-based positive position of the aggregate carrier element, or -1 for
  /// COUNT.
  int agg_positive_pos() const { return agg_positive_pos_; }

  /// Local predicates resolved per element (exposed for engines that need
  /// to re-check, e.g. the brute-force oracle).
  const std::vector<std::vector<Comparison>>& local_predicates() const {
    return local_preds_;
  }

  std::string ToString() const { return query_.ToString(); }

 private:
  friend class Analyzer;

  Query query_;
  std::vector<EventTypeId> positive_types_;
  std::unordered_map<EventTypeId, std::vector<Role>> roles_;
  std::vector<std::vector<Comparison>> local_preds_;  // per elem index
  std::vector<Comparison> join_preds_;
  PartitionSpec partition_spec_;
  int agg_positive_pos_ = -1;
};

}  // namespace aseq

#endif  // ASEQ_QUERY_COMPILED_QUERY_H_
