#ifndef ASEQ_STREAM_TRACE_IO_H_
#define ASEQ_STREAM_TRACE_IO_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "common/status.h"
#include "stream/stream_source.h"

namespace aseq {

/// \brief CSV trace format for event streams.
///
/// Line format: `type,timestamp[,attr=value]...`, e.g.
/// ```
/// DELL,1001,price=24.5,volume=300,traderId=7
/// IPIX,1003,price=11.2,volume=1200,traderId=3
/// ```
/// Values parse as int64 when they look integral, double when they look
/// fractional, and string otherwise. This is the drop-in point for the real
/// WPI stock trace (after a one-line reshape of its `ticker timestamp`
/// records into this format). Blank lines and `#` comments are skipped;
/// surrounding whitespace (including a CRLF line end's `\r`) is trimmed.
/// Events must be in non-decreasing timestamp order; out-of-order rows are
/// an error (the paper's model assumes in-order arrival).
///
/// Two readers share one line parser (TraceLineParser), so they accept,
/// reject and number lines identically:
///   - TraceFileSource streams a file through a fixed read buffer into a
///     recycled event batch; memory stays flat in the trace length. It
///     registers types and attributes in the live schema as it first sees
///     them, and a malformed line ends the stream with status() set.
///   - ParseTrace / ReadTraceFile materialize a whole trace as a vector and
///     commit schema registrations only when every line parsed.

/// \brief Parses trace lines one at a time into events.
///
/// Holds the per-stream state a line's meaning depends on — its line
/// number and the previous timestamp — plus name caches: the event type
/// names seen so far (direct-mapped) and, per attribute position, the last
/// attribute name there. A line whose names hit the caches does no schema
/// lookup and allocates nothing when its values are numeric.
class TraceLineParser {
 public:
  /// Registers unseen names in `*schema`, which must outlive the parser.
  explicit TraceLineParser(Schema* schema) : schema_(schema) {}

  /// Parses one line (without its '\n'). A blank or comment line leaves
  /// `*out` unspecified and sets `*is_event` false; an event line
  /// overwrites every field of `*out` (keeping its attribute capacity) and
  /// sets `*is_event` true. Errors are ParseErrors naming the line number.
  Status ParseLine(std::string_view line, Event* out, bool* is_event);

  /// Forgets the line number and previous timestamp (a rewound stream).
  void Restart() {
    lineno_ = 0;
    prev_ts_ = INT64_MIN;
  }

 private:
  struct NameSlot {
    std::string name;
    uint32_t id = UINT32_MAX;
  };

  EventTypeId TypeIdFor(std::string_view name);
  AttrId AttrIdAt(size_t position, std::string_view name);
  Status LineError(const std::string& what) const;

  Schema* schema_;
  size_t lineno_ = 0;
  Timestamp prev_ts_ = INT64_MIN;
  std::array<NameSlot, 256> type_cache_;
  std::vector<NameSlot> attr_cache_;  // by attribute position in the line
};

/// \brief A StreamSource that parses a trace file as it is consumed.
///
/// Reads through a fixed 1 MiB buffer (grown only for a longer line),
/// carrying a partial line over to the next chunk, and parses straight
/// into a batch it owns and reuses: BorrowBatch's view is valid until the
/// next BorrowBatch/Reset call, and the storage is overwritten then.
/// A malformed line or a read error ends the stream early: BorrowBatch
/// yields the events before it, then nothing, and status() holds the
/// error. Consumers must check status() once the stream ends.
class TraceFileSource final : public StreamSource {
 public:
  /// Opens `path`; IoError when the file cannot be opened. Names are
  /// registered in `*schema` (which must outlive the source) as lines
  /// first use them.
  static Result<std::unique_ptr<TraceFileSource>> Open(const std::string& path,
                                                       Schema* schema);

  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  std::span<Event> BorrowBatch(size_t max) override;
  /// Rewinds to the first line; schema registrations stay.
  void Reset() override;
  Status status() const override { return status_; }

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };

  TraceFileSource(std::string path, std::FILE* file, Schema* schema);

  /// Yields the next line (without '\n'), valid until the next call.
  bool NextLine(std::string_view* line);
  /// Parses the next event line into `*out`; false at the end of the
  /// stream or on an error (then status() says which).
  bool Next(Event* out);

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  TraceLineParser parser_;
  std::unique_ptr<char[]> buf_;
  size_t cap_ = 0;
  size_t begin_ = 0;  // unconsumed bytes are buf_[begin_, end_)
  size_t end_ = 0;
  bool eof_ = false;
  Status status_;
  std::vector<Event> batch_;
};

/// Reads a whole trace file: drains a TraceFileSource over a staging copy
/// of `*schema`, committed only when every line parsed.
Result<std::vector<Event>> ReadTraceFile(const std::string& path,
                                         Schema* schema);

/// Parses trace content from a string (same format and errors as
/// ReadTraceFile); `*schema` is updated only on success.
Result<std::vector<Event>> ParseTrace(const std::string& content,
                                      Schema* schema);

/// Writes events to a trace file; the inverse of ReadTraceFile.
Status WriteTraceFile(const std::string& path, const std::vector<Event>& events,
                      const Schema& schema);

/// Serializes events to trace-format text.
std::string FormatTrace(const std::vector<Event>& events, const Schema& schema);

}  // namespace aseq

#endif  // ASEQ_STREAM_TRACE_IO_H_
