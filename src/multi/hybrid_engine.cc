#include "multi/hybrid_engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "aseq/aseq_engine.h"
#include "ckpt/ckpt.h"
#include "baseline/stack_engine.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/nonshared_engine.h"
#include "multi/pretree_engine.h"

namespace aseq {

namespace {

/// The one partitioning shape the sharing engines support: GROUP BY one
/// attribute. Returns it, or kInvalidAttr when the query is ungrouped.
AttrId ShareableGroupAttr(const CompiledQuery& q) {
  if (!q.partitioned()) return kInvalidAttr;
  const PartitionSpec& spec = q.partition_spec();
  return spec.per_group_output && spec.parts.size() == 1 &&
                 spec.group_part == 0
             ? spec.parts[0].attr
             : kInvalidAttr;
}

/// Eligible for the COUNT-sharing engines (PreTree / Chop-Connect)?
bool Shareable(const CompiledQuery& q) {
  if (q.agg().func != AggFunc::kCount || q.has_join_predicates() ||
      q.pattern().has_negation() || q.window_ms() <= 0) {
    return false;
  }
  if (q.partitioned() && ShareableGroupAttr(q) == kInvalidAttr) return false;
  for (const auto& preds : q.local_predicates()) {
    if (!preds.empty()) return false;
  }
  // Chop-Connect also needs distinct types per pattern; route duplicates
  // to per-query engines to keep one eligibility rule.
  const auto& types = q.positive_types();
  for (size_t i = 0; i < types.size(); ++i) {
    for (size_t j = i + 1; j < types.size(); ++j) {
      if (types[i] == types[j]) return false;
    }
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<HybridMultiEngine>> HybridMultiEngine::Create(
    std::vector<CompiledQuery> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("hybrid engine needs at least one query");
  }
  std::unique_ptr<HybridMultiEngine> engine(new HybridMultiEngine());
  engine->routing_.resize(queries.size());

  // --- Stage 1: shareable queries, grouped by (window, group attribute) ---
  // (the sharing engines require one common window and uniform grouping).
  std::map<std::pair<Timestamp, AttrId>, std::vector<size_t>> by_window;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (Shareable(queries[qi])) {
      by_window[{queries[qi].window_ms(), ShareableGroupAttr(queries[qi])}]
          .push_back(qi);
    }
  }
  for (auto& [window_key, members] : by_window) {
    const Timestamp window = window_key.first;
    // Queries sharing a START type with a sibling go to one PreTree.
    std::map<EventTypeId, std::vector<size_t>> by_start;
    for (size_t qi : members) {
      by_start[queries[qi].positive_types()[0]].push_back(qi);
    }
    std::vector<size_t> pretree_set, rest;
    for (auto& [start, group] : by_start) {
      auto& dest = group.size() >= 2 ? pretree_set : rest;
      dest.insert(dest.end(), group.begin(), group.end());
    }
    if (!pretree_set.empty()) {
      std::vector<CompiledQuery> subset;
      for (size_t qi : pretree_set) subset.push_back(queries[qi]);
      ASEQ_ASSIGN_OR_RETURN(auto pretree,
                            PreTreeEngine::Create(std::move(subset)));
      for (size_t qi : pretree_set) {
        engine->routing_[qi] = "PreTree(win=" + std::to_string(window) + ")";
      }
      engine->multi_parts_.push_back(
          MultiPart{std::move(pretree), std::move(pretree_set)});
    }
    if (rest.empty()) continue;
    // Chop-Connect over the remainder when the planner finds sharing.
    std::vector<CompiledQuery> subset;
    for (size_t qi : rest) subset.push_back(queries[qi]);
    ChopPlan plan = PlanChopConnect(subset);
    bool any_sharing = false;
    for (const auto& segs : plan.query_segments) {
      if (segs.size() > 1) any_sharing = true;
    }
    if (any_sharing && rest.size() >= 2) {
      ASEQ_ASSIGN_OR_RETURN(
          auto cc, ChopConnectEngine::Create(std::move(subset), plan));
      for (size_t qi : rest) {
        engine->routing_[qi] =
            "ChopConnect(win=" + std::to_string(window) + ")";
      }
      engine->multi_parts_.push_back(MultiPart{std::move(cc), std::move(rest)});
    } else {
      for (size_t qi : rest) {
        ASEQ_ASSIGN_OR_RETURN(auto single, CreateAseqEngine(queries[qi]));
        engine->routing_[qi] = single->name();
        engine->single_parts_.push_back(SinglePart{std::move(single), qi});
      }
    }
  }

  // --- Stage 2/3: everything not routed yet. -------------------------------
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!engine->routing_[qi].empty()) continue;
    if (queries[qi].has_join_predicates()) {
      engine->routing_[qi] = "StackBased(join predicates)";
      engine->single_parts_.push_back(
          SinglePart{std::make_unique<StackEngine>(queries[qi]), qi});
      continue;
    }
    ASEQ_ASSIGN_OR_RETURN(auto single, CreateAseqEngine(queries[qi]));
    engine->routing_[qi] = single->name();
    engine->single_parts_.push_back(SinglePart{std::move(single), qi});
  }
  return engine;
}

void HybridMultiEngine::ProcessEvent(const Event& e,
                                     std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  int64_t objects = 0;
  for (MultiPart& part : multi_parts_) {
    multi_scratch_.clear();
    part.engine->OnEvent(e, &multi_scratch_);
    for (MultiOutput& mo : multi_scratch_) {
      mo.query_index = part.global_index[mo.query_index];
      out->push_back(std::move(mo));
      ++stats_.outputs;
    }
    objects += part.engine->stats().objects.current();
  }
  for (SinglePart& part : single_parts_) {
    single_scratch_.clear();
    part.engine->OnEvent(e, &single_scratch_);
    for (Output& output : single_scratch_) {
      MultiOutput mo;
      mo.query_index = part.global_index;
      mo.output = std::move(output);
      out->push_back(std::move(mo));
      ++stats_.outputs;
    }
    objects += part.engine->stats().objects.current();
  }
  stats_.objects.Add(objects - last_objects_);
  last_objects_ = objects;
}

void HybridMultiEngine::SumWorkUnits() {
  uint64_t work = 0;
  stats_.adm_admitted = 0;
  stats_.adm_rejected_local = 0;
  stats_.adm_missing_attr = 0;
  stats_.adm_generic_cmps = 0;
  auto accrue = [this](const EngineStats& s) {
    stats_.adm_admitted += s.adm_admitted;
    stats_.adm_rejected_local += s.adm_rejected_local;
    stats_.adm_missing_attr += s.adm_missing_attr;
    stats_.adm_generic_cmps += s.adm_generic_cmps;
  };
  for (const MultiPart& part : multi_parts_) {
    work += part.engine->stats().work_units;
    accrue(part.engine->stats());
  }
  for (const SinglePart& part : single_parts_) {
    work += part.engine->stats().work_units;
    accrue(part.engine->stats());
  }
  stats_.work_units = work;
}

void HybridMultiEngine::OnBatch(std::span<const Event> batch,
                                std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  // Sub-engines see events one at a time: the combined live-object peak is
  // sampled after every event and outputs interleave across parts per
  // arrival. Only the work-unit summation is hoisted to batch end (the
  // intermediate sums are unobservable; the final value is identical).
  for (const Event& e : batch) ProcessEvent(e, out);
  SumWorkUnits();
  stats_.NoteBatch(batch.size());
}

std::vector<MultiOutput> HybridMultiEngine::Poll(Timestamp now) {
  std::vector<MultiOutput> outputs;
  for (MultiPart& part : multi_parts_) {
    for (MultiOutput& mo : part.engine->Poll(now)) {
      mo.query_index = part.global_index[mo.query_index];
      outputs.push_back(std::move(mo));
    }
  }
  for (SinglePart& part : single_parts_) {
    for (Output& output : part.engine->Poll(now)) {
      MultiOutput mo;
      mo.query_index = part.global_index;
      mo.output = std::move(output);
      outputs.push_back(std::move(mo));
    }
  }
  // Parts emit in routing order; the contract is workload-query order
  // (stable, so per-query group order is preserved).
  std::stable_sort(outputs.begin(), outputs.end(),
                   [](const MultiOutput& a, const MultiOutput& b) {
                     return a.query_index < b.query_index;
                   });
  return outputs;
}

bool HybridMultiEngine::shardable() const {
  if (multi_parts_.empty() && single_parts_.empty()) return false;
  for (const MultiPart& part : multi_parts_) {
    const auto* shardable =
        dynamic_cast<const MultiShardableEngine*>(part.engine.get());
    if (shardable == nullptr || !shardable->shardable()) return false;
  }
  for (const SinglePart& part : single_parts_) {
    if (dynamic_cast<const ShardableEngine*>(part.engine.get()) == nullptr) {
      return false;
    }
  }
  return true;
}

void HybridMultiEngine::SyncPurgeTo(Timestamp now,
                                    std::span<const size_t> trigger_queries) {
  // Forward to exactly the parts owning triggered queries, translating
  // workload indexes to part-local ones (trigger_queries is ascending, so
  // binary_search decides membership).
  auto triggered = [&](size_t global) {
    return std::binary_search(trigger_queries.begin(), trigger_queries.end(),
                              global);
  };
  std::vector<size_t> local;
  for (MultiPart& part : multi_parts_) {
    local.clear();
    for (size_t li = 0; li < part.global_index.size(); ++li) {
      if (triggered(part.global_index[li])) local.push_back(li);
    }
    if (local.empty()) continue;
    auto* shardable = dynamic_cast<MultiShardableEngine*>(part.engine.get());
    assert(shardable != nullptr);
    shardable->SyncPurgeTo(now, local);
  }
  for (SinglePart& part : single_parts_) {
    if (!triggered(part.global_index)) continue;
    auto* shardable = dynamic_cast<ShardableEngine*>(part.engine.get());
    assert(shardable != nullptr);
    shardable->SyncPurgeTo(now);
  }
  // Resample the combined live-object total (purges only remove, so the
  // peak of the sum is unperturbed).
  int64_t objects = 0;
  for (const MultiPart& part : multi_parts_) {
    objects += part.engine->stats().objects.current();
  }
  for (const SinglePart& part : single_parts_) {
    objects += part.engine->stats().objects.current();
  }
  stats_.objects.Add(objects - last_objects_);
  last_objects_ = objects;
}

Status HybridMultiEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(last_objects_);
  writer->WriteU64(multi_parts_.size());
  for (const MultiPart& part : multi_parts_) {
    ASEQ_RETURN_NOT_OK(part.engine->Checkpoint(writer));
  }
  writer->WriteU64(single_parts_.size());
  for (const SinglePart& part : single_parts_) {
    ASEQ_RETURN_NOT_OK(part.engine->Checkpoint(writer));
  }
  return Status::OK();
}

Status HybridMultiEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&last_objects_, "last objects"));
  uint64_t n_multi = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_multi, 8, "multi parts"));
  if (n_multi != multi_parts_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_multi) +
        " multi parts but routing built " + std::to_string(multi_parts_.size()));
  }
  int64_t live = 0;
  for (MultiPart& part : multi_parts_) {
    ASEQ_RETURN_NOT_OK(part.engine->Restore(reader));
    live += part.engine->stats().objects.current();
  }
  uint64_t n_single = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_single, 8, "single parts"));
  if (n_single != single_parts_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_single) +
        " single parts but routing built " +
        std::to_string(single_parts_.size()));
  }
  for (SinglePart& part : single_parts_) {
    ASEQ_RETURN_NOT_OK(part.engine->Restore(reader));
    live += part.engine->stats().objects.current();
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckSampledObjects(stats, last_objects_, live));
  stats_ = stats;
  return Status::OK();
}

Result<MultiEngineFactory> MakeStrategyFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& qs) {
  // Wraps one engine's Create into a factory of the workload engine type.
  auto wrap = [](auto make) -> MultiEngineFactory {
    return [make]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      auto made = make();
      if (!made.ok()) return made.status();
      return std::unique_ptr<MultiQueryEngine>(std::move(made).value());
    };
  };
  const std::pair<const char*, MultiEngineFactory> table[] = {
      {"nonshare", wrap([&qs] { return NonSharedEngine::CreateAseq(qs); })},
      {"sase", wrap([&qs] {
         return Result(NonSharedEngine::CreateStackBased(qs));
       })},
      {"pretree", wrap([&qs] { return PreTreeEngine::Create(qs); })},
      {"cc", wrap([&qs] {
         return ChopConnectEngine::Create(qs, PlanChopConnect(qs));
       })},
      {"hybrid", wrap([&qs] { return HybridMultiEngine::Create(qs); })},
  };
  for (const auto& [name, factory] : table) {
    if (strategy == name) return factory;
  }
  return Status::InvalidArgument(
      "--strategy must be nonshare|sase|pretree|cc|hybrid");
}

}  // namespace aseq
