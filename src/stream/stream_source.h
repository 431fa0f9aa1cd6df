#ifndef ASEQ_STREAM_STREAM_SOURCE_H_
#define ASEQ_STREAM_STREAM_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "common/event.h"
#include "common/status.h"

namespace aseq {

/// \brief Pull-based event source.
///
/// Sources yield events in arrival order; the consuming runtime assigns
/// sequence numbers. The paper assumes in-order streams (out-of-order
/// handling is explicitly future work, Sec. 8), so sources must yield
/// non-decreasing timestamps.
class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// Borrows the next batch: a view of up to `max` events owned by the
  /// source (empty at end of stream), valid until the next BorrowBatch or
  /// Reset call. The view is mutable so the runtime can stamp sequence
  /// numbers in place — the one per-event write it needs — but callers
  /// must not move from or otherwise consume the events: a resettable
  /// source replays the same storage.
  virtual std::span<Event> BorrowBatch(size_t max) = 0;

  /// Restarts the stream from the beginning.
  virtual void Reset() = 0;

  /// Why the stream ended early: OK for a source that ran to its end (or
  /// has not ended yet), an error for one whose input failed — e.g. a
  /// malformed trace line. A consumer checks it once BorrowBatch reports
  /// the end.
  virtual Status status() const { return Status::OK(); }
};

/// \brief A source replaying an in-memory vector of events it owns.
class VectorSource : public StreamSource {
 public:
  explicit VectorSource(std::vector<Event> events)
      : events_(std::move(events)) {}

  /// Zero-copy refill: a window straight into the backing vector. Seq
  /// stamps land in the stored events, which is harmless — every run
  /// restamps them — and a Reset replay yields the same stream.
  std::span<Event> BorrowBatch(size_t max) override {
    const size_t n = std::min(max, events_.size() - pos_);
    std::span<Event> view(events_.data() + pos_, n);
    pos_ += n;
    return view;
  }

  void Reset() override { pos_ = 0; }

  const std::vector<Event>& events() const { return events_; }
  size_t size() const { return events_.size(); }

 private:
  std::vector<Event> events_;
  size_t pos_ = 0;
};

/// \brief A source over a caller-owned const vector of events: each batch
/// is a copy of the next slice into a batch the source owns, so stamping
/// sequence numbers never writes through to the caller's events.
class ConstVectorSource : public StreamSource {
 public:
  /// `*events` must outlive the source.
  explicit ConstVectorSource(const std::vector<Event>* events)
      : events_(events) {}

  std::span<Event> BorrowBatch(size_t max) override {
    const size_t n = std::min(max, events_->size() - pos_);
    batch_.assign(events_->begin() + static_cast<ptrdiff_t>(pos_),
                  events_->begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return {batch_.data(), n};
  }

  void Reset() override { pos_ = 0; }

 private:
  const std::vector<Event>* events_;
  std::vector<Event> batch_;
  size_t pos_ = 0;
};

}  // namespace aseq

#endif  // ASEQ_STREAM_STREAM_SOURCE_H_
