#include "exec/shard_router.h"

#include <bit>
#include <cassert>
#include <cstdlib>

#include "fault/fault.h"

namespace aseq {
namespace exec {

namespace {

/// Why one query cannot shard on its own; empty when it can.
std::string QueryRefusal(const CompiledQuery& query) {
  if (query.has_join_predicates()) {
    return "query has join predicates: only match-constructing engines "
           "support them, and those do not shard";
  }
  if (!query.partitioned()) {
    return "query has no GROUP BY or equivalence partitioning: all events "
           "share one counter set";
  }
  const PartitionSpec& spec = query.partition_spec();
  if (!spec.per_group_output) {
    return "query partitions by equivalence only (no GROUP BY): triggers "
           "aggregate across every partition, which sharding would split";
  }
  assert(spec.group_part >= 0);
  const PartitionSpec::Part& group =
      spec.parts[static_cast<size_t>(spec.group_part)];
  for (const auto& [type, roles] : query.roles()) {
    (void)type;
    for (const Role& role : roles) {
      if (!role.negated) continue;
      if (role.elem_index >= group.covers_elem.size() ||
          !group.covers_elem[role.elem_index]) {
        return "a negated element is not constrained by the GROUP BY "
               "attribute: negative instances would invalidate partitions "
               "across shards";
      }
    }
  }
  const AggFunc f = query.agg().func;
  if (f != AggFunc::kCount && spec.parts.size() > 1 && f != AggFunc::kMin &&
      f != AggFunc::kMax) {
    return "AGG SUM/AVG over a multi-part partition key merges a group's "
           "partitions in map-iteration order at trigger time; resharding "
           "cannot reproduce that floating-point order bit-exact";
  }
  return "";
}

const PartitionSpec::Part& GroupPart(const CompiledQuery& query) {
  const PartitionSpec& spec = query.partition_spec();
  return spec.parts[static_cast<size_t>(spec.group_part)];
}

}  // namespace

ShardPlan PlanSharding(std::span<const CompiledQuery> queries) {
  ShardPlan plan;
  if (queries.empty()) {
    plan.reason = "workload is empty: nothing to shard";
    return plan;
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    std::string reason = QueryRefusal(queries[i]);
    if (!reason.empty()) {
      plan.reason = queries.size() == 1
                        ? std::move(reason)
                        : "query " + std::to_string(i) + ": " + reason;
      return plan;
    }
  }
  // One event lands on exactly one shard, so every query's key must derive
  // from the same event attribute; otherwise query A's hash placement
  // would scatter query B's partitions for one B-key across shards.
  const PartitionSpec::Part& first = GroupPart(queries[0]);
  for (size_t i = 1; i < queries.size(); ++i) {
    const PartitionSpec::Part& group = GroupPart(queries[i]);
    if (group.attr != first.attr) {
      plan.reason =
          "queries group by different attributes ('" + first.attr_name +
          "' vs '" + group.attr_name + "' in query " + std::to_string(i) +
          "): one event cannot land on every query's owner shard at once";
      return plan;
    }
  }
  plan.shardable = true;
  return plan;
}

ShardRouter::ShardRouter(std::span<const CompiledQuery> queries,
                         size_t num_shards)
    : num_shards_(num_shards) {
  assert(num_shards_ > 0);
  queries_.reserve(queries.size());
  for (const CompiledQuery& q : queries) {
    assert(q.partition_spec().per_group_output);
    queries_.push_back(
        PerQuery{q.num_positive(),
                 static_cast<size_t>(q.partition_spec().group_part),
                 q.has_window(), plan::AdmissionProgram(q)});
  }
  prefilters_.resize(queries_.size());
}

std::span<const ShardRouter::Route> ShardRouter::RouteBatch(
    std::span<const Event> batch) {
  unrouted_overload_ = false;
  overload_hits_.clear();
  if (fault::Injector::Global().armed()) {
    // Per *event*, in seq order, before any admission: fault-spec offsets
    // count every event.
    for (size_t i = 0; i < batch.size(); ++i) {
      auto fired = fault::Injector::Global().Hit(fault::Point::kRouterRoute);
      if (!fired) continue;
      if (fired->kind == fault::Kind::kCrash) {
        // Coordinator death: the process is gone; recovery is the
        // restore-from-snapshot path, exercised by the CI fault smoke.
        std::_Exit(fault::kCrashExitCode);
      }
      if (fired->kind == fault::Kind::kOverload) {
        overload_hits_.push_back(static_cast<uint32_t>(i));
      }
    }
  }
  // The union of the queries' relevance masks picks the routed events.
  const size_t words = (batch.size() + 63) / 64;
  union_.assign(words, 0);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (prefilters_[qi].Scan(queries_[qi].program, batch) == 0) continue;
    const std::span<const uint64_t> mask = prefilters_[qi].mask();
    for (size_t w = 0; w < words; ++w) union_[w] |= mask[w];
  }
  word_base_.resize(words);
  size_t routed = 0;
  for (size_t w = 0; w < words; ++w) {
    word_base_[w] = static_cast<uint32_t>(routed);
    for (uint64_t bits = union_[w]; bits != 0; bits &= bits - 1) {
      const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
      if (routed == routes_.size()) routes_.emplace_back();
      Route& route = routes_[routed++];
      route.index = static_cast<uint32_t>(i);
      route.shard = static_cast<size_t>(batch[i].seq() % num_shards_);
      route.has_key = false;
      route.key_id = 0;
      route.inject_overload = false;
      route.trigger_queries.clear();
    }
  }
  // The route of relevant event `i`: routes before its word, plus the
  // relevant events below it within the word.
  auto route_of = [&](size_t i) -> Route& {
    const uint64_t below = union_[i >> 6] & ((uint64_t{1} << (i & 63)) - 1);
    return routes_[word_base_[i >> 6] + std::popcount(below)];
  };
  for (uint32_t i : overload_hits_) {
    if ((union_[i >> 6] >> (i & 63)) & 1) {
      route_of(i).inject_overload = true;
    } else {
      unrouted_overload_ = true;
    }
  }
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    PerQuery& pq = queries_[qi];
    plan::BatchPrefilter& prefilter = prefilters_[qi];
    // Whole-query early-out: a batch with no event of any type the query
    // plays is invisible to it — skip its admission pass entirely.
    if (prefilter.relevant_count() == 0) continue;
    // Exactly the engines' staging condition: a record exists iff the
    // local predicates pass and the partition key extracts. No interner is
    // passed — the router speaks its *own* id space, interned below.
    admitter_.AdmitBatch(pq.program, batch, /*interner=*/nullptr,
                         /*stats=*/nullptr, &prefilter);
    const std::span<const uint64_t> mask = prefilter.mask();
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
        const size_t i = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        Route& route = route_of(i);
        bool triggered = false;
        for (const plan::AdmissionRecord& rec : admitter_.RecordsFor(i)) {
          if (!route.has_key) {
            // Every role of every query extracts the same GROUP BY value
            // (PlanSharding: one shared attribute, and the group part
            // covers every element), so whichever record comes first fixes
            // the one owner shard; the part hash is a pure function of the
            // value. Interning gives a dense id per distinct key, so
            // `id % num_shards` spreads keys round-robin in first-seen
            // order — immune to hash clustering — at the cost of making
            // the table part of the checkpointed router state (see
            // Checkpoint).
            route.has_key = true;
            route.key_id = interner_.InternHashed(
                rec.part_hashes[pq.group_part], *rec.part_vals[pq.group_part]);
            route.shard = route.key_id % num_shards_;
          }
          const Role& role = rec.role->role;
          if (!role.negated && role.position == pq.length) {
            triggered = true;
            break;  // key already fixed (every staged record extracts it)
          }
        }
        if (triggered && pq.windowed) route.trigger_queries.push_back(qi);
      }
    }
  }
  return {routes_.data(), routed};
}

void ShardRouter::Checkpoint(ckpt::Writer* writer) const {
  writer->WriteU64(interner_.size());
  for (const Value& v : interner_.values()) ckpt::WriteValue(writer, v);
}

Status ShardRouter::Restore(ckpt::Reader* reader) {
  uint64_t n = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n, 1, "router interned values"));
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &v));
    values.push_back(std::move(v));
  }
  if (!interner_.RestoreFromValues(std::move(values))) {
    return Status::ParseError(
        "snapshot corrupt: duplicate value in router interner table");
  }
  return Status::OK();
}

}  // namespace exec
}  // namespace aseq
