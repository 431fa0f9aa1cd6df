#include "aseq/counter_set.h"

#include "ckpt/ckpt.h"

namespace aseq {

CounterSet::CounterSet(size_t length, AggFunc func, size_t carrier_pos1,
                       Timestamp window_ms, EngineStats* stats)
    : length_(length),
      func_(func),
      carrier_(carrier_pos1),
      window_ms_(window_ms),
      stats_(stats) {
  if (window_ms_ == 0) {
    single_.emplace(length_, func_, carrier_);
    if (stats_ != nullptr) stats_->objects.Add(1);
  }
}

CounterSet::~CounterSet() {
  if (stats_ != nullptr) {
    stats_->objects.Remove(static_cast<int64_t>(entries_.size()) +
                           (single_.has_value() ? 1 : 0));
  }
}

CounterSet::CounterSet(CounterSet&& other) noexcept
    : length_(other.length_),
      func_(other.func_),
      carrier_(other.carrier_),
      window_ms_(other.window_ms_),
      stats_(other.stats_),
      entries_(std::move(other.entries_)),
      single_(std::move(other.single_)),
      total_count_(other.total_count_) {
  // Ownership of the object accounting moves with the state.
  other.stats_ = nullptr;
  other.entries_.clear();
  other.single_.reset();
  other.total_count_ = 0;
}

void CounterSet::Purge(Timestamp now) {
  while (!entries_.empty() && entries_.front().exp <= now) {
    total_count_ -= entries_.front().counter.count_at(length_);
    entries_.pop_front();
    if (stats_ != nullptr) stats_->objects.Remove(1);
  }
}

void CounterSet::OnStart(const Event& e, double value) {
  if (!windowed()) {
    single_->ApplyPositive(1, value);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  Entry entry{e.ts() + window_ms_, PrefixCounter(length_, func_, carrier_)};
  entry.counter.ApplyPositive(1, value);
  total_count_ += entry.counter.count_at(length_);  // non-zero iff L == 1
  entries_.push_back(std::move(entry));
  if (stats_ != nullptr) {
    stats_->objects.Add(1);
    ++stats_->work_units;
  }
}

void CounterSet::ApplyUpdate(size_t pos, double value) {
  if (!windowed()) {
    single_->ApplyPositive(pos, value);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  const bool tail = pos == length_;
  for (Entry& entry : entries_) {
    // Lemma 1: the tail cell grows by the length-(L-1) prefix count.
    if (tail) total_count_ += entry.counter.count_at(length_ - 1);
    entry.counter.ApplyPositive(pos, value);
  }
  if (stats_ != nullptr) stats_->work_units += entries_.size();
}

void CounterSet::ResetPrefix(size_t gap) {
  if (!windowed()) {
    single_->ResetPrefix(gap);
    if (stats_ != nullptr) ++stats_->work_units;
    return;
  }
  for (Entry& entry : entries_) {
    entry.counter.ResetPrefix(gap);
  }
  if (stats_ != nullptr) stats_->work_units += entries_.size();
}

AggAccum CounterSet::Total() const {
  AggAccum acc;
  if (!windowed()) {
    acc.Merge(single_->Tail(), func_);
    return acc;
  }
  if (func_ == AggFunc::kCount) {
    // Integer-exact running total: identical to the walk below, without
    // visiting every live counter.
    acc.count = total_count_;
    return acc;
  }
  for (const Entry& entry : entries_) {
    acc.Merge(entry.counter.Tail(), func_);
  }
  return acc;
}

size_t CounterSet::num_counters() const {
  return windowed() ? entries_.size() : 1;
}

void CounterSet::Checkpoint(ckpt::Writer* w) const {
  w->WriteBool(windowed());
  if (!windowed()) {
    single_->Checkpoint(w);
    return;
  }
  w->WriteU64(entries_.size());
  for (const Entry& entry : entries_) {
    w->WriteI64(entry.exp);
    entry.counter.Checkpoint(w);
  }
  w->WriteU64(total_count_);
}

Status CounterSet::Restore(ckpt::Reader* r) {
  bool windowed_flag = false;
  ASEQ_RETURN_NOT_OK(r->ReadBool(&windowed_flag, "counter set mode"));
  if (windowed_flag != windowed()) {
    return Status::ParseError(
        "snapshot corrupt: counter set mode mismatch (snapshot is " +
        std::string(windowed_flag ? "windowed" : "unbounded") +
        ", query compiles to the opposite)");
  }
  if (!windowed()) {
    return single_->Restore(r);
  }
  uint64_t n = 0;
  // A serialized entry is at least 8 (exp) + 8 (counter length) bytes.
  ASEQ_RETURN_NOT_OK(r->ReadCount(&n, 16, "counter set entries"));
  entries_.clear();
  Timestamp prev_exp = std::numeric_limits<Timestamp>::min();
  for (uint64_t i = 0; i < n; ++i) {
    Entry entry{0, PrefixCounter(length_, func_, carrier_)};
    ASEQ_RETURN_NOT_OK(r->ReadI64(&entry.exp, "counter entry expiry"));
    if (entry.exp < prev_exp) {
      return Status::ParseError(
          "snapshot corrupt: counter entries out of expiry order");
    }
    prev_exp = entry.exp;
    ASEQ_RETURN_NOT_OK(entry.counter.Restore(r));
    entries_.push_back(std::move(entry));
    // Counted as OnStart counts it, so the destructor's Remove balances
    // even when a later part of the restore fails.
    if (stats_ != nullptr) stats_->objects.Add(1);
  }
  ASEQ_RETURN_NOT_OK(r->ReadU64(&total_count_, "counter set total"));
  return Status::OK();
}

}  // namespace aseq
