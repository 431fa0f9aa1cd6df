#ifndef ASEQ_ENGINE_CHANGE_DETECTOR_H_
#define ASEQ_ENGINE_CHANGE_DETECTOR_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/value.h"
#include "engine/engine.h"

namespace aseq {

/// \brief Adapter implementing the paper's output contract literally:
/// "query results are output whenever the aggregation result changes as
/// the window slides" (Sec. 2.1).
///
/// The wrapped engine emits on TRIG arrivals; expirations silently lower
/// the current value (Example 1: when b6 purges a1, "the count is updated
/// to zero"). This adapter polls the wrapped engine after every event and
/// emits an Output whenever any (group's) value differs from the last
/// reported one — including drops caused purely by expiration.
///
/// Cost: one Poll per event — O(live state) rather than A-Seq's O(1)
/// amortized; use it when change-driven output is genuinely required.
class ChangeDetectingEngine : public QueryEngine {
 public:
  explicit ChangeDetectingEngine(std::unique_ptr<QueryEngine> inner)
      : inner_(std::move(inner)) {}

  /// The change contract requires one Poll of the inner engine after
  /// *every* event, so the batch is fed to the inner engine one event at a
  /// time; there is no per-event work to hoist.
  void OnBatch(std::span<const Event> batch,
               std::vector<Output>* out) override {
    for (const Event& e : batch) {
      if (!primed_) {
        // The empty-state value (0 / null) is the baseline, not a change.
        for (const Output& output : inner_->Poll(e.ts())) {
          last_[output.group.has_value() ? *output.group : Value()] =
              output.value;
        }
        primed_ = true;
      }
      scratch_.clear();
      inner_->OnEvent(e, &scratch_);
      for (const Output& output : inner_->Poll(e.ts())) {
        Value key = output.group.has_value() ? *output.group : Value();
        auto it = last_.find(key);
        if (it == last_.end()) {
          // A key seen for the first time was implicitly at the empty
          // value (0 / null) before; only a non-empty value is a change.
          last_[key] = output.value;
          if (IsEmptyValue(output.value)) continue;
        } else if (it->second.Equals(output.value)) {
          continue;
        } else {
          it->second = output.value;
        }
        Output changed = output;
        changed.ts = e.ts();
        changed.seq = e.seq();
        out->push_back(std::move(changed));
      }
    }
  }

  std::vector<Output> Poll(Timestamp now) override {
    return inner_->Poll(now);
  }

  const EngineStats& stats() const override { return inner_->stats(); }

  Status Checkpoint(ckpt::Writer* writer) const override {
    writer->WriteBool(primed_);
    writer->WriteU64(last_.size());
    for (const auto& [key, value] : last_) {
      ckpt::WriteValue(writer, key);
      ckpt::WriteValue(writer, value);
    }
    return inner_->Checkpoint(writer);
  }

  Status Restore(ckpt::Reader* reader) override {
    ASEQ_RETURN_NOT_OK(reader->ReadBool(&primed_, "change detector primed"));
    uint64_t n = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n, 2, "last reported values"));
    last_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      Value key, value;
      ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &key));
      ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &value));
      last_[std::move(key)] = std::move(value);
    }
    return inner_->Restore(reader);
  }

  std::string name() const override {
    return inner_->name() + "+OnChange";
  }

  QueryEngine* inner() { return inner_.get(); }

 private:
  /// The value an aggregate has over the empty match set: 0 for COUNT,
  /// 0.0 for SUM, null for AVG/MIN/MAX.
  static bool IsEmptyValue(const Value& v) {
    if (v.is_null()) return true;
    if (v.type() == ValueType::kInt64) return v.AsInt64() == 0;
    if (v.type() == ValueType::kDouble) return v.AsDouble() == 0.0;
    return false;
  }

  std::unique_ptr<QueryEngine> inner_;
  bool primed_ = false;
  std::map<Value, Value, ValueTotalLess> last_;
  std::vector<Output> scratch_;
};

}  // namespace aseq

#endif  // ASEQ_ENGINE_CHANGE_DETECTOR_H_
