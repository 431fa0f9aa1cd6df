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

  /// Yields the next event into `*out`; returns false at end of stream.
  virtual bool Next(Event* out) = 0;

  /// Fills `*out` (cleared first) with up to `max` events in arrival
  /// order; returns the number yielded (0 at end of stream). The default
  /// wraps Next; bulk sources override for a single memcpy-style refill.
  virtual size_t NextBatch(size_t max, std::vector<Event>* out) {
    out->clear();
    Event e;
    while (out->size() < max && Next(&e)) out->push_back(std::move(e));
    return out->size();
  }

  /// Borrows the next batch: a view of up to `max` events owned by the
  /// source, valid until the next Next/NextBatch/Borrow/Reset call. The
  /// view is mutable so the runtime can stamp sequence numbers in place
  /// — the one per-event write it needs — but callers must not move from
  /// or otherwise consume the events: a resettable source replays the
  /// same storage. In-memory sources override this to hand out their
  /// backing array directly, which deletes the per-batch deep copy from
  /// the serial hot loop; the default stages through an internal buffer
  /// (same cost as NextBatch).
  virtual std::span<Event> BorrowBatch(size_t max) {
    borrow_buf_.clear();
    Event e;
    while (borrow_buf_.size() < max && Next(&e)) {
      borrow_buf_.push_back(std::move(e));
    }
    return {borrow_buf_.data(), borrow_buf_.size()};
  }

  /// Restarts the stream from the beginning.
  virtual void Reset() = 0;

  /// Why the stream ended early: OK for a source that ran to its end (or
  /// has not ended yet), an error for one whose input failed — e.g. a
  /// malformed trace line. A consumer checks it once Next/BorrowBatch
  /// report the end.
  virtual Status status() const { return Status::OK(); }

 private:
  std::vector<Event> borrow_buf_;  // default BorrowBatch staging
};

/// \brief A source replaying an in-memory vector of events.
class VectorSource : public StreamSource {
 public:
  explicit VectorSource(std::vector<Event> events)
      : events_(std::move(events)) {}

  bool Next(Event* out) override {
    if (pos_ >= events_.size()) return false;
    *out = events_[pos_++];
    return true;
  }

  size_t NextBatch(size_t max, std::vector<Event>* out) override {
    out->clear();
    const size_t n = std::min(max, events_.size() - pos_);
    out->assign(events_.begin() + static_cast<ptrdiff_t>(pos_),
                events_.begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return n;
  }

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

}  // namespace aseq

#endif  // ASEQ_STREAM_STREAM_SOURCE_H_
