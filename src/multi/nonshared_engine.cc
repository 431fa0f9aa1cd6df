#include "multi/nonshared_engine.h"

#include <cassert>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/ckpt.h"

namespace aseq {

NonSharedEngine::NonSharedEngine(
    std::vector<std::unique_ptr<QueryEngine>> engines, std::string name)
    : engines_(std::move(engines)), name_(std::move(name)) {}

Result<std::unique_ptr<NonSharedEngine>> NonSharedEngine::CreateAseq(
    const std::vector<CompiledQuery>& queries) {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(queries.size());
  for (const CompiledQuery& q : queries) {
    ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<QueryEngine> engine,
                          CreateAseqEngine(q));
    engines.push_back(std::move(engine));
  }
  return std::make_unique<NonSharedEngine>(std::move(engines),
                                           "NonShare(A-Seq)");
}

std::unique_ptr<NonSharedEngine> NonSharedEngine::CreateStackBased(
    const std::vector<CompiledQuery>& queries) {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  engines.reserve(queries.size());
  for (const CompiledQuery& q : queries) {
    engines.push_back(std::make_unique<StackEngine>(q));
  }
  return std::make_unique<NonSharedEngine>(std::move(engines),
                                           "NonShare(StackBased)");
}

void NonSharedEngine::ProcessEvent(const Event& e,
                                   std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  int64_t objects = 0;
  for (size_t i = 0; i < engines_.size(); ++i) {
    scratch_.clear();
    engines_[i]->OnEvent(e, &scratch_);
    for (Output& output : scratch_) {
      MultiOutput mo;
      mo.query_index = i;
      mo.output = std::move(output);
      out->push_back(std::move(mo));
      ++stats_.outputs;
    }
    objects += engines_[i]->stats().objects.current();
  }
  // Track the combined live-object total so the peak of the sum is exact.
  stats_.objects.Add(objects - last_objects_);
  last_objects_ = objects;
}

void NonSharedEngine::SumWorkUnits() {
  uint64_t work = 0;
  stats_.adm_admitted = 0;
  stats_.adm_rejected_local = 0;
  stats_.adm_missing_attr = 0;
  stats_.adm_generic_cmps = 0;
  for (const std::unique_ptr<QueryEngine>& engine : engines_) {
    const EngineStats& s = engine->stats();
    work += s.work_units;
    stats_.adm_admitted += s.adm_admitted;
    stats_.adm_rejected_local += s.adm_rejected_local;
    stats_.adm_missing_attr += s.adm_missing_attr;
    stats_.adm_generic_cmps += s.adm_generic_cmps;
  }
  stats_.work_units = work;
}

void NonSharedEngine::OnBatch(std::span<const Event> batch,
                              std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  // Sub-engines must see events interleaved per arrival (not per-engine
  // batches): the combined live-object peak is sampled after every event,
  // and outputs interleave across queries in arrival order. Only the
  // work-unit summation is batch-hoisted — intermediate sums are never
  // observable, and the final value is identical.
  for (const Event& e : batch) ProcessEvent(e, out);
  SumWorkUnits();
  stats_.NoteBatch(batch.size());
}

std::vector<MultiOutput> NonSharedEngine::Poll(Timestamp now) {
  std::vector<MultiOutput> outputs;
  for (size_t i = 0; i < engines_.size(); ++i) {
    for (Output& output : engines_[i]->Poll(now)) {
      MultiOutput mo;
      mo.query_index = i;
      mo.output = std::move(output);
      outputs.push_back(std::move(mo));
    }
  }
  return outputs;
}

bool NonSharedEngine::shardable() const {
  for (const auto& engine : engines_) {
    if (dynamic_cast<const ShardableEngine*>(engine.get()) == nullptr) {
      return false;
    }
  }
  return true;
}

void NonSharedEngine::SyncPurgeTo(Timestamp now,
                                  std::span<const size_t> trigger_queries) {
  // Forward only to the sub-engines whose queries actually triggered: a
  // serial sub-engine purges lazily at its *own* trigger events (see
  // HpcEngine::SyncPurgeTo), never at a sibling's.
  for (size_t qi : trigger_queries) {
    auto* shardable = dynamic_cast<ShardableEngine*>(engines_[qi].get());
    assert(shardable != nullptr);
    shardable->SyncPurgeTo(now);
  }
  // Resample the combined live-object total (the purge only removes, so
  // the peak of the sum is unperturbed).
  int64_t objects = 0;
  for (const auto& engine : engines_) {
    objects += engine->stats().objects.current();
  }
  stats_.objects.Add(objects - last_objects_);
  last_objects_ = objects;
}

Status NonSharedEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(last_objects_);
  writer->WriteU64(engines_.size());
  for (const auto& engine : engines_) {
    ASEQ_RETURN_NOT_OK(engine->Checkpoint(writer));
  }
  return Status::OK();
}

Status NonSharedEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&last_objects_, "last objects"));
  uint64_t n_engines = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_engines, 8, "sub-engines"));
  if (n_engines != engines_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_engines) +
        " sub-engines but the workload has " + std::to_string(engines_.size()));
  }
  int64_t live = 0;
  for (auto& engine : engines_) {
    ASEQ_RETURN_NOT_OK(engine->Restore(reader));
    live += engine->stats().objects.current();
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckSampledObjects(stats, last_objects_, live));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq
