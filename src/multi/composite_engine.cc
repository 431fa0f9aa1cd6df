#include "multi/composite_engine.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/ckpt.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/pretree_engine.h"
#include "multi/shared_count_engine.h"

namespace aseq {

void CompositeEngine::AddShared(std::unique_ptr<MultiQueryEngine> engine,
                                std::vector<size_t> queries,
                                const std::string& route) {
  for (size_t qi : queries) routing_[qi] = route;
  parts_.push_back(Part{std::move(engine), nullptr, std::move(queries)});
}

void CompositeEngine::AddSingle(std::unique_ptr<QueryEngine> engine,
                                size_t query, std::string route) {
  routing_[query] = route.empty() ? engine->name() : std::move(route);
  parts_.push_back(Part{nullptr, std::move(engine), {query}});
}

Result<std::unique_ptr<CompositeEngine>> CompositeEngine::CreateNonShare(
    const std::vector<CompiledQuery>& queries) {
  std::unique_ptr<CompositeEngine> engine(
      new CompositeEngine("NonShare(A-Seq)", queries.size()));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<QueryEngine> part,
                          CreateAseqEngine(queries[qi]));
    engine->AddSingle(std::move(part), qi);
  }
  return engine;
}

std::unique_ptr<CompositeEngine> CompositeEngine::CreateSase(
    const std::vector<CompiledQuery>& queries) {
  std::unique_ptr<CompositeEngine> engine(
      new CompositeEngine("NonShare(StackBased)", queries.size()));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    engine->AddSingle(std::make_unique<StackEngine>(queries[qi]), qi);
  }
  return engine;
}

Result<std::unique_ptr<CompositeEngine>> CompositeEngine::CreateHybrid(
    std::vector<CompiledQuery> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("hybrid engine needs at least one query");
  }
  std::unique_ptr<CompositeEngine> engine(
      new CompositeEngine("Hybrid", queries.size()));
  auto subset_of = [&](const std::vector<size_t>& members) {
    std::vector<CompiledQuery> subset;
    for (size_t qi : members) subset.push_back(queries[qi]);
    return subset;
  };

  // --- Stage 1: shareable queries, grouped by (window, group attribute) ---
  // (the sharing engines require one common window and uniform grouping).
  // Chop-Connect also needs distinct types per pattern; duplicates go to
  // per-query engines to keep one eligibility rule.
  std::map<std::pair<Timestamp, AttrId>, std::vector<size_t>> by_window;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const CompiledQuery& q = queries[qi];
    if (CheckCountShape(q) == CountShape::kOk && HasDistinctTypes(q)) {
      by_window[{q.window_ms(), CountShapeGroupAttr(q)}].push_back(qi);
    }
  }
  for (auto& [window_key, members] : by_window) {
    const std::string win = "(win=" + std::to_string(window_key.first) + ")";
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
      ASEQ_ASSIGN_OR_RETURN(auto pretree,
                            PreTreeEngine::Create(subset_of(pretree_set)));
      engine->AddShared(std::move(pretree), std::move(pretree_set),
                        "PreTree" + win);
    }
    if (rest.empty()) continue;
    // Chop-Connect over the remainder when the planner finds sharing.
    std::vector<CompiledQuery> subset = subset_of(rest);
    ChopPlan plan = PlanChopConnect(subset);
    bool any_sharing = false;
    for (const auto& segs : plan.query_segments) {
      if (segs.size() > 1) any_sharing = true;
    }
    if (any_sharing && rest.size() >= 2) {
      ASEQ_ASSIGN_OR_RETURN(
          auto cc, ChopConnectEngine::Create(std::move(subset), plan));
      engine->AddShared(std::move(cc), std::move(rest), "ChopConnect" + win);
    } else {
      for (size_t qi : rest) {
        ASEQ_ASSIGN_OR_RETURN(auto single, CreateAseqEngine(queries[qi]));
        engine->AddSingle(std::move(single), qi);
      }
    }
  }

  // --- Stage 2/3: everything not routed yet. -------------------------------
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    if (!engine->routing_[qi].empty()) continue;
    if (queries[qi].has_join_predicates()) {
      engine->AddSingle(std::make_unique<StackEngine>(queries[qi]), qi,
                        "StackBased(join predicates)");
      continue;
    }
    ASEQ_ASSIGN_OR_RETURN(auto single, CreateAseqEngine(queries[qi]));
    engine->AddSingle(std::move(single), qi);
  }
  // Shared parts see each event first, each group in routing order.
  std::stable_partition(
      engine->parts_.begin(), engine->parts_.end(),
      [](const Part& part) { return part.shared != nullptr; });
  return engine;
}

bool CompositeEngine::shares() const {
  return std::any_of(parts_.begin(), parts_.end(), [](const Part& part) {
    return part.shared != nullptr;
  });
}

void CompositeEngine::ProcessEvent(const Event& e,
                                   std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  const size_t before = out->size();
  for (Part& part : parts_) {
    if (part.shared != nullptr) {
      shared_scratch_.clear();
      part.shared->OnEvent(e, &shared_scratch_);
      for (MultiOutput& mo : shared_scratch_) {
        mo.query_index = part.global_index[mo.query_index];
        out->push_back(std::move(mo));
      }
    } else {
      single_scratch_.clear();
      part.single->OnEvent(e, &single_scratch_);
      for (Output& output : single_scratch_) {
        out->push_back(MultiOutput{part.global_index[0], std::move(output)});
      }
    }
  }
  stats_.outputs += out->size() - before;
  SampleObjects();
}

int64_t CompositeEngine::LiveObjects() const {
  int64_t live = 0;
  for (const Part& part : parts_) live += part.stats().objects.current();
  return live;
}

void CompositeEngine::SampleObjects() {
  // One step to the combined total, so the peak of the sum is exact.
  stats_.objects.Sample(LiveObjects());
}

void CompositeEngine::SumParts() {
  for (const StatsField& f : kStatsFields) {
    if (f.part != kSumOfParts) continue;
    stats_.*f.field = 0;
    for (const Part& part : parts_) stats_.*f.field += part.stats().*f.field;
  }
}

void CompositeEngine::OnBatch(std::span<const Event> batch,
                              std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  // Parts see events one at a time: the combined live-object peak is
  // sampled after every event and outputs interleave across parts per
  // arrival. Only the sums of the parts' counters are hoisted to batch end
  // (the intermediate sums are unobservable; the final value is identical).
  for (const Event& e : batch) ProcessEvent(e, out);
  SumParts();
  stats_.NoteBatch(batch.size());
}

std::vector<MultiOutput> CompositeEngine::Poll(Timestamp now) {
  std::vector<MultiOutput> outputs;
  for (Part& part : parts_) {
    if (part.shared != nullptr) {
      for (MultiOutput& mo : part.shared->Poll(now)) {
        mo.query_index = part.global_index[mo.query_index];
        outputs.push_back(std::move(mo));
      }
    } else {
      for (Output& output : part.single->Poll(now)) {
        outputs.push_back(MultiOutput{part.global_index[0], std::move(output)});
      }
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

bool CompositeEngine::shardable() const {
  if (parts_.empty()) return false;
  return std::all_of(parts_.begin(), parts_.end(), [](const Part& part) {
    const ShardableEngine* shardable = part.shardable();
    return shardable != nullptr && shardable->shardable();
  });
}

void CompositeEngine::SyncPurgeTo(Timestamp now,
                                  std::span<const size_t> trigger_queries) {
  // Forward to exactly the parts owning triggered queries, translating
  // workload indexes to part-local ones (trigger_queries is ascending, so
  // binary_search decides membership).
  std::vector<size_t> local;
  for (Part& part : parts_) {
    local.clear();
    for (size_t li = 0; li < part.global_index.size(); ++li) {
      if (std::binary_search(trigger_queries.begin(), trigger_queries.end(),
                             part.global_index[li])) {
        local.push_back(li);
      }
    }
    if (local.empty()) continue;
    ShardableEngine* shardable = part.shardable();
    assert(shardable != nullptr);
    shardable->SyncPurgeTo(now, local);
  }
  // Purges only remove, so the peak of the sum is unperturbed.
  SampleObjects();
}

Status CompositeEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  // The last sampled total, which a restore checks against the parts.
  writer->WriteI64(stats_.objects.current());
  writer->WriteU64(parts_.size());
  for (const Part& part : parts_) {
    ASEQ_RETURN_NOT_OK(part.Visit(
        [writer](const auto& engine) { return engine.Checkpoint(writer); }));
  }
  return Status::OK();
}

Status CompositeEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  int64_t sampled = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&sampled, "last objects"));
  uint64_t n_parts = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_parts, 8, "parts"));
  if (n_parts != parts_.size()) {
    return Status::ParseError("snapshot corrupt: " + std::to_string(n_parts) +
                              " parts but the workload plan has " +
                              std::to_string(parts_.size()));
  }
  for (Part& part : parts_) {
    ASEQ_RETURN_NOT_OK(part.Visit(
        [reader](auto& engine) { return engine.Restore(reader); }));
  }
  ASEQ_RETURN_NOT_OK(
      ckpt::CheckSampledObjects(stats, sampled, LiveObjects()));
  stats_ = stats;
  return Status::OK();
}

Result<exec::MultiEngineFactory> MakeStrategyFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& qs) {
  // Wraps one engine's Create into a factory of the workload engine type.
  auto wrap = [](auto make) -> exec::MultiEngineFactory {
    return [make]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      auto made = make();
      if (!made.ok()) return made.status();
      return std::unique_ptr<MultiQueryEngine>(std::move(made).value());
    };
  };
  const std::pair<const char*, exec::MultiEngineFactory> table[] = {
      {"nonshare", wrap([&qs] { return CompositeEngine::CreateNonShare(qs); })},
      {"sase", wrap([&qs] { return Result(CompositeEngine::CreateSase(qs)); })},
      {"pretree", wrap([&qs] { return PreTreeEngine::Create(qs); })},
      {"cc", wrap([&qs] {
         return ChopConnectEngine::Create(qs, PlanChopConnect(qs));
       })},
      {"hybrid", wrap([&qs] { return CompositeEngine::CreateHybrid(qs); })},
  };
  for (const auto& [name, factory] : table) {
    if (strategy == name) return factory;
  }
  return Status::InvalidArgument(
      "--strategy must be nonshare|sase|pretree|cc|hybrid");
}

}  // namespace aseq
