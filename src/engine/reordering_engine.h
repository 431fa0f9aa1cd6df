#ifndef ASEQ_ENGINE_REORDERING_ENGINE_H_
#define ASEQ_ENGINE_REORDERING_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "engine/engine.h"
#include "stream/reorder.h"

namespace aseq {

/// \brief Adapter that makes any in-order engine consume boundedly
/// out-of-order streams (the paper's Sec. 8 future work). `EngineT` is
/// QueryEngine for a single query, MultiQueryEngine for a workload (one
/// shared K-slack buffer in front of every query).
///
/// Arriving events pass through a KSlackReorderer; released events are
/// re-sequenced and fed to the wrapped engine. Results are therefore
/// delayed by up to the slack bound — the price of disorder tolerance.
/// Call Finish() at end of stream to drain the buffer.
///
/// Late events past the slack bound are dropped by the reorderer, but never
/// silently: stats() folds the drop count into EngineStats::dropped_events.
template <class EngineT>
class ReorderingEngineT : public EngineT {
 public:
  using OutputT = typename EngineT::OutputT;

  ReorderingEngineT(std::unique_ptr<EngineT> inner, Timestamp slack_ms)
      : inner_(std::move(inner)), reorderer_(slack_ms) {}

  /// Pushes the whole batch through the reorder buffer, then feeds
  /// everything released — in release order — to the inner engine as one
  /// batch.
  void OnBatch(std::span<const Event> batch,
               std::vector<OutputT>* out) override {
    if (batch.empty()) return;
    released_.clear();
    for (const Event& e : batch) reorderer_.Push(e, &released_);
    for (Event& r : released_) r.set_seq(next_seq_++);
    inner_->OnBatch(released_, out);
  }

  /// Drains the reorder buffer into the wrapped engine through OnBatch —
  /// the same code path as steady-state batches, so the drain cannot
  /// diverge from normal processing.
  void Finish(std::vector<OutputT>* out) {
    released_.clear();
    reorderer_.Flush(&released_);
    for (Event& r : released_) r.set_seq(next_seq_++);
    inner_->OnBatch(released_, out);
  }

  /// Current value as of the *released* stream time; buffered events are
  /// not yet reflected.
  std::vector<OutputT> Poll(Timestamp now) override {
    return inner_->Poll(now);
  }

  /// Inner engine stats with the reorderer's drop count folded into
  /// dropped_events.
  const EngineStats& stats() const override {
    stats_cache_ = inner_->stats();
    stats_cache_.dropped_events += reorderer_.dropped();
    return stats_cache_;
  }

  Status Checkpoint(ckpt::Writer* writer) const override {
    reorderer_.Checkpoint(writer);
    writer->WriteU64(next_seq_);
    return inner_->Checkpoint(writer);
  }

  Status Restore(ckpt::Reader* reader) override {
    ASEQ_RETURN_NOT_OK(reorderer_.Restore(reader));
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&next_seq_, "reorder next seq"));
    return inner_->Restore(reader);
  }

  std::string name() const override {
    return inner_->name() + "+KSlack";
  }

  uint64_t dropped_events() const { return reorderer_.dropped(); }
  size_t buffered_events() const { return reorderer_.buffered(); }
  EngineT* inner() { return inner_.get(); }

 private:
  std::unique_ptr<EngineT> inner_;
  KSlackReorderer reorderer_;
  SeqNum next_seq_ = 0;
  std::vector<Event> released_;
  /// stats() composes inner stats + drop count on demand; mutable because
  /// the interface returns a reference.
  mutable EngineStats stats_cache_;
};

using ReorderingEngine = ReorderingEngineT<QueryEngine>;

}  // namespace aseq

#endif  // ASEQ_ENGINE_REORDERING_ENGINE_H_
