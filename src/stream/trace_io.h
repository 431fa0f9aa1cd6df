#ifndef ASEQ_STREAM_TRACE_IO_H_
#define ASEQ_STREAM_TRACE_IO_H_

#include <array>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "common/status.h"
#include "metrics/metrics.h"
#include "query/compiled_query.h"
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
/// The reader is three layers (docs/internals.md §18):
///   - TraceChunker cuts the byte stream into numbered chunks of whole
///     lines, reading sequentially (pipes and FIFOs work);
///   - TraceChunkParser, the one parsing kernel, turns a chunk into events;
///     it never writes the live Schema: names it cannot resolve from a
///     published name table get chunk-local ids;
///   - TraceFileSource hands chunks to the consumer strictly in chunk order,
///     registering each chunk's new names in first-seen order and remapping
///     its local ids, so ids match a one-line-at-a-time reader exactly. It
///     parses inline or on parser threads; the output is the same.
/// ParseTrace and ReadTraceFile run the same kernel and commit schema
/// registrations only when every line parsed.

/// \brief The values a run reads from a trace (docs/internals.md §18).
///
/// Events of a type in `types` keep their attributes in `attrs`; every
/// other value is validated (a malformed one fails exactly as when read)
/// but neither converted nor stored. Both are indexed by schema id; an id
/// past the end, or a name the schema did not have when the source
/// opened, is unread.
struct TraceReadSet {
  std::vector<bool> types;
  std::vector<bool> attrs;

  /// What `queries` read: the types of every pattern element, positive or
  /// negated, and the attributes of their local and join predicates,
  /// their partitioning (equivalence terms and GROUP BY) and their
  /// aggregate.
  static TraceReadSet Of(std::span<const CompiledQuery> queries);

  bool ReadsType(uint32_t id) const { return id < types.size() && types[id]; }
  bool ReadsAttr(uint32_t id) const { return id < attrs.size() && attrs[id]; }
};

/// Bytes per trace chunk (a chunk holding one longer line grows to fit
/// it).
inline constexpr size_t kTraceChunkBytes = size_t{128} << 10;

/// Parser threads for a trace on a host with `hardware_threads` cores:
/// every run, serial or sharded, parses on up to 3 of the spare cores; a
/// 1-core host parses inline (0).
size_t TraceParseThreads(unsigned hardware_threads);

/// \brief A block of whole trace lines and what parsing it produced.
///
/// The chunker fills `text`, the parser the rest. Parsed storage is kept
/// across reuses, so a recycled chunk allocates nothing for numeric events.
struct TraceChunk {
  /// A name the parser could not resolve to a final id, in first-seen
  /// order; events carry `kLocalId | index` until the consumer remaps them.
  struct NewName {
    bool is_type = false;
    size_t line = 0;  // chunk-local, 1-based
    std::string name;
  };

  /// Marks a chunk-local type or attribute id (index into `new_names`).
  static constexpr uint32_t kLocalId = uint32_t{1} << 31;

  uint64_t index = 0;  // read order
  std::unique_ptr<char[]> text;
  size_t size = 0;      // text bytes
  size_t capacity = 0;  // text allocation

  std::vector<Event> events;  // [0, num_events) are this chunk's events
  size_t num_events = 0;
  size_t lines = 0;  // lines parsed, the failing one included
  std::vector<NewName> new_names;
  /// The first line whose timestamp parsed (0: none), and its timestamp:
  /// the consumer checks it against the previous chunk's last event.
  size_t first_ts_line = 0;
  Timestamp first_ts = 0;
  Timestamp last_ts = 0;
  /// The first malformed line (0: none) and its message, without the
  /// `trace line N: ` prefix the consumer adds after rebasing N.
  size_t error_line = 0;
  std::string error;
  /// Attribute values converted and stored, and values only validated
  /// (unread under the parser's read set).
  uint64_t values_parsed = 0;
  uint64_t values_skipped = 0;

  std::string_view view() const { return {text.get(), size}; }
};

/// \brief Cuts a byte stream into chunks of whole lines.
///
/// Reads sequentially through `fread` into each chunk's own buffer: about
/// `chunk_bytes` per chunk, cut after its last '\n', the remainder carried
/// to the next chunk. A line longer than a chunk grows that chunk. The
/// stream's last line needs no '\n'. Not thread-safe; TraceFileSource
/// calls it under its lock.
class TraceChunker {
 public:
  /// Reads `file` (owned by the caller); `path` names it in errors.
  TraceChunker(std::FILE* file, std::string path, size_t chunk_bytes);

  /// Fills `chunk` with the next block; false at the end of the stream or
  /// after a read error (then status() says which).
  bool Next(TraceChunk* chunk);
  /// True once every byte has been handed out.
  bool exhausted() const { return eof_ && carry_.empty(); }
  /// Rewinds to the first byte; IoError when the stream cannot seek.
  Status Rewind();

  const Status& status() const { return status_; }
  uint64_t bytes() const { return bytes_; }

 private:
  std::FILE* file_;
  std::string path_;
  size_t chunk_bytes_;
  std::string carry_;  // bytes after the last '\n' read so far
  bool eof_ = false;
  Status status_;
  uint64_t next_index_ = 0;
  uint64_t bytes_ = 0;
};

/// \brief The trace parsing kernel: one chunk of text into events.
///
/// A single pass per line: `memchr` finds each `,` and `=`, integers are
/// parsed by hand with an overflow check, doubles through `from_chars`,
/// and fields land straight in the chunk's recycled events. Names resolve
/// through per-parser caches (event types direct-mapped on an FNV-1a hash,
/// attributes by field position), then through `names`, the published
/// table of final ids; a name in neither gets a chunk-local id. The
/// timestamp order is checked within the chunk only. Parsing stops at the
/// first malformed line. With a read set, values it does not read are
/// validated in the same pass but not stored; names, errors and line
/// numbers are the same as without one.
class TraceChunkParser {
 public:
  /// `reads` (null: read everything) must outlive the parser.
  explicit TraceChunkParser(const TraceReadSet* reads = nullptr)
      : reads_(reads) {}

  /// Parses `text` into `*out`'s events, names and error fields. The
  /// `names` tables passed to one parser must only grow between calls.
  void Parse(std::string_view text, const Schema& names, TraceChunk* out);

 private:
  struct NameSlot {
    std::string name;
    uint32_t id = UINT32_MAX;
    uint64_t epoch = 0;  // Parse call a local id belongs to; 0: final id
  };

  enum class Line { kSkip, kEvent, kError };

  Line ParseLine(const char* p, const char* end, Event* out);
  uint32_t TypeIdFor(std::string_view name);
  uint32_t AttrIdAt(size_t position, std::string_view name);
  uint32_t Resolve(bool is_type, std::string_view name);
  Line Fail(std::string message);

  const TraceReadSet* reads_;
  // Per-Parse state.
  const Schema* names_ = nullptr;
  TraceChunk* chunk_ = nullptr;
  size_t lineno_ = 0;
  Timestamp prev_ts_ = INT64_MIN;
  uint64_t epoch_ = 0;
  std::unordered_map<std::string, uint32_t> local_types_;
  std::unordered_map<std::string, uint32_t> local_attrs_;
  // Caches, kept across Parse calls.
  std::array<NameSlot, 256> type_cache_;
  std::vector<NameSlot> attr_cache_;  // by attribute position in the line
};

/// \brief A StreamSource that parses a trace file as it is consumed.
///
/// Chunks (TraceChunker) are parsed by TraceChunkParser either inline on
/// the consumer's thread or, with `parse_threads` > 0, on that many parser
/// threads that run ahead by at most two chunks each; the consumer takes
/// them strictly in chunk order either way, so the events, their ids, the
/// batch boundaries and the errors do not depend on the thread count.
/// Parser threads start on the first BorrowBatch, and not at all when the
/// trace fits in one chunk.
///
/// BorrowBatch(max) yields exactly min(max, remaining) events; the view is
/// valid until the next BorrowBatch/Reset call. A malformed line or a read
/// error ends the stream early: BorrowBatch yields the events before it,
/// then nothing, and status() holds the error (the first in file order,
/// numbered as in the file). Consumers must check status() once the
/// stream ends.
class TraceFileSource final : public StreamSource {
 public:
  /// Opens `path`; IoError when it cannot be opened. Names are registered
  /// in `*schema` (which must outlive the source) in the order lines first
  /// use them. `chunk_bytes` is a test seam; 0 picks kTraceChunkBytes.
  /// With `reads` (copied; ids of `*schema` as it is now), only the
  /// values it names are stored.
  static Result<std::unique_ptr<TraceFileSource>> Open(
      const std::string& path, Schema* schema, size_t parse_threads = 0,
      size_t chunk_bytes = 0, const TraceReadSet* reads = nullptr);

  /// Stops and joins the parser threads, mid-stream too.
  ~TraceFileSource() override;
  TraceFileSource(const TraceFileSource&) = delete;
  TraceFileSource& operator=(const TraceFileSource&) = delete;

  std::span<Event> BorrowBatch(size_t max) override;
  /// Rewinds to the first line; schema registrations stay. A stream that
  /// cannot seek (a pipe) ends with an IoError instead.
  void Reset() override;
  Status status() const override { return status_; }

  /// What the ingest layer did so far (--stats-json's `ingest` object).
  IngestStats ingest_stats() const;

 private:
  struct FileCloser {
    void operator()(std::FILE* f) const { std::fclose(f); }
  };
  enum class SlotState { kFree, kParsing, kReady };
  struct Slot {
    SlotState state = SlotState::kFree;
    TraceChunk chunk;
  };

  TraceFileSource(std::string path, std::FILE* file, Schema* schema,
                  size_t parse_threads, size_t chunk_bytes,
                  const TraceReadSet* reads);

  /// Makes the next chunk in order current; false at the end of the
  /// stream or on an error (then status_ is set).
  bool AdvanceChunk();
  /// Registers the current chunk's new names, remaps its local ids and
  /// checks its first timestamp; false when the stream ends at it.
  bool AdmitChunk(TraceChunk* chunk);
  /// Publishes the live schema to the parsers once stale ids cost enough.
  void MaybePublishNames();
  void StartParsers();
  void StopParsers();
  /// Reads the next chunk into its slot under `*lock` (held), parses it
  /// with the lock released, and marks it ready; at the end of the input
  /// it sets input_done_. An exception from either step goes to failure_.
  void ReadAndParse(std::unique_lock<std::mutex>* lock,
                    TraceChunkParser* parser);
  /// A parser thread: ReadAndParse while a slot is free and input remains.
  void ParserLoop();
  /// Ends the stream: `status` becomes status(), the parsers stop.
  void EndStream(Status status);

  std::string path_;
  std::unique_ptr<std::FILE, FileCloser> file_;
  Schema* schema_;
  const size_t parse_threads_;
  const std::unique_ptr<const TraceReadSet> reads_;  // null: read all

  // Consumer state: touched only by the thread calling BorrowBatch.
  TraceChunkParser inline_parser_;
  Slot* current_ = nullptr;  // chunk being drained
  size_t pos_ = 0;           // next event of current_
  uint64_t next_chunk_ = 0;  // index of the chunk to drain next
  size_t line_base_ = 0;     // lines in the chunks before next_chunk_
  Timestamp prev_ts_ = INT64_MIN;
  bool ended_ = false;
  Status status_;
  Status pending_;  // the error that ends the stream once current_ drains
  std::vector<Event> batch_;  // staging for a batch spanning chunks
  std::vector<uint32_t> remap_;
  size_t published_names_ = 0;  // names in the last published table
  size_t remapped_events_ = 0;  // events remapped since it was published
  uint64_t remapped_chunks_ = 0;
  uint64_t chunks_taken_ = 0;
  uint64_t values_parsed_ = 0;
  uint64_t values_skipped_ = 0;
  double consumer_wait_s_ = 0;
  size_t threads_run_ = 0;

  // Shared with the parser threads.
  mutable std::mutex mu_;
  std::condition_variable slot_freed_;   // parsers wait for a free slot
  std::condition_variable chunk_ready_;  // the consumer waits for a chunk
  TraceChunker chunker_;                 // guarded by mu_
  std::vector<Slot> slots_;  // chunk i lives in slot i % size; by mu_
  uint64_t chunks_read_ = 0;                  // guarded by mu_
  bool input_done_ = false;                   // guarded by mu_
  bool stop_ = false;                         // guarded by mu_
  std::shared_ptr<const Schema> names_;       // guarded by mu_
  double parse_busy_s_ = 0;                   // guarded by mu_
  std::exception_ptr failure_;                // guarded by mu_
  std::vector<std::thread> threads_;  // last: joined before the above die
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
