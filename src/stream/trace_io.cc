#include "stream/trace_io.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <system_error>
#include <utility>

namespace aseq {

namespace {

/// Events per BorrowBatch when ReadTraceFile drains a source.
constexpr size_t kDrainBatch = 256;

constexpr char kOutOfOrder[] =
    "out-of-order timestamp (the stream must be in arrival order)";

Status TraceLineError(size_t line, const std::string& what) {
  return Status::ParseError("trace line " + std::to_string(line) + ": " +
                            what);
}

/// isspace in the "C" locale (the program never switches locale), inlined:
/// the parser trims a dozen tokens per line.
inline bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Skips the spaces at `p` up to the line's '\n'.
inline const char* SkipBlanks(const char* p, const char* end) {
  while (p < end && *p != '\n' && IsSpace(*p)) ++p;
  return p;
}

/// The first `c` in [p, end), or `end`.
inline const char* Find(const char* p, const char* end, char c) {
  const void* at = std::memchr(p, c, static_cast<size_t>(end - p));
  return at != nullptr ? static_cast<const char*>(at) : end;
}

constexpr uint64_t kOnes = 0x0101010101010101;

/// The 8 bytes at `p` (p <= end) as a word, first byte lowest; bytes from
/// `end` on read as '\n', so a scan stops at the text's end as at a line
/// end and never reads past it.
inline uint64_t Load8(const char* p, const char* end) {
  uint64_t w = kOnes * '\n';
  if (end - p >= 8) {
    std::memcpy(&w, p, 8);
  } else {
    std::memcpy(&w, p, static_cast<size_t>(end - p));
  }
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

/// The high bit of each byte of `w` equal to `c`; exact up to the first
/// match, which is all a scan uses.
inline uint64_t BytesEqual(uint64_t w, char c) {
  const uint64_t x = w ^ (kOnes * static_cast<unsigned char>(c));
  return (x - kOnes) & ~x & (kOnes << 7);
}

/// A token as one forward scan yields it: its bytes with trailing spaces
/// trimmed, the delimiter that ended it (or the text's end), and its
/// first 16 bytes as two words, zero past its size (the name caches
/// compare these).
struct Token {
  const char* data;
  size_t size;
  const char* stop;
  uint64_t w0 = 0;
  uint64_t w1 = 0;

  std::string_view view() const { return {data, size}; }
  bool stopped_at(const char* end, char c) const {
    return stop != end && *stop == c;
  }
};

/// The low `n` bytes of a word (n <= 8) set.
inline uint64_t LowBytes(size_t n) {
  return n >= 8 ? ~uint64_t{0} : (uint64_t{1} << (8 * n)) - 1;
}

/// The ',' and '\n' bytes of `w`.
inline uint64_t Stops(uint64_t w) {
  return BytesEqual(w, ',') | BytesEqual(w, '\n');
}

/// Scans from `p` (past the token's leading spaces) to the first ',' or
/// '\n' — or '=', for an attribute name — eight bytes at a time.
inline Token ScanToken(const char* p, const char* end, bool name) {
  Token t{p, 0, end};
  uint64_t words[2] = {0, 0};
  for (const char* q = p;; q += 8) {
    const uint64_t w = Load8(q, end);
    const uint64_t stops = Stops(w) | (name ? BytesEqual(w, '=') : 0);
    if (q - p < 16) words[(q - p) / 8] = w;
    if (stops != 0) {
      t.stop = q + std::countr_zero(stops) / 8;
      break;
    }
  }
  const char* e = t.stop;
  while (e > p && IsSpace(e[-1])) --e;
  t.size = static_cast<size_t>(e - p);
  t.w0 = words[0] & LowBytes(t.size);
  t.w1 = t.size > 8 ? words[1] & LowBytes(t.size - 8) : 0;
  return t;
}

/// The bytes of `w` that are not decimal digits, as high-nibble bits;
/// exact up to the first (a carry only runs up from a non-digit).
inline uint64_t NonDigits(uint64_t w) {
  const uint64_t x = w ^ (kOnes * '0');
  return (x | (x + kOnes * 6)) & (kOnes * 0xF0);
}

/// A bare run of 1-7 digits at `p` followed by ',' or '\n' (or the end),
/// read from one word: the common timestamp and integer. Sets `*value`
/// and `*stop`; false for anything else, which the caller scans in full.
inline bool ShortDigits(const char* p, const char* end, uint64_t* value,
                        const char** stop) {
  const uint64_t w = Load8(p, end);
  const unsigned n = std::countr_zero(NonDigits(w)) / 8;
  if (n == 0 || n == 8) return false;
  const char next = static_cast<char>(w >> (8 * n));
  if (next != ',' && next != '\n') return false;
  // Digits into the top n bytes (zeros below read as leading zeros), then
  // pairs, quads and the eight combine in three multiplies.
  uint64_t v = (w ^ (kOnes * '0')) << (8 * (8 - n));
  v = (v * 10 + (v >> 8)) & 0x00FF00FF00FF00FF;
  v = (v * 100 + (v >> 16)) & 0x0000FFFF0000FFFF;
  *value = (v * 10000 + (v >> 32)) & 0xFFFFFFFF;
  *stop = p + n;
  return true;
}

/// Accumulates the decimal digits at `*p` into `*acc` and advances `*p`
/// past them; sets `*overflow` once the value passes `limit`.
inline void ScanDigits(const char** p, const char* end, uint64_t limit,
                       uint64_t* acc, bool* overflow) {
  for (const char* q = *p; q < end; ++q) {
    const unsigned d = static_cast<unsigned char>(*q) - unsigned{'0'};
    if (d > 9) {
      *p = q;
      return;
    }
    if (*acc > (limit - d) / 10) {
      *overflow = true;
    } else {
      *acc = *acc * 10 + d;
    }
  }
  *p = end;
}

inline uint64_t MagnitudeLimit(bool negative) {
  return negative ? uint64_t{1} << 63 : (uint64_t{1} << 63) - 1;
}

inline int64_t Signed(uint64_t magnitude, bool negative) {
  return static_cast<int64_t>(negative ? 0 - magnitude : magnitude);
}

enum class IntToken { kOk, kBad, kOverflow };

/// A timestamp token as strtoll read it whole: an optional '-', or one
/// '+' not followed by a sign, then digits. A token that is not all digits
/// is bad before it is overflowing (`99999999999999999999999x` is bad).
IntToken ParseTimestamp(std::string_view token, int64_t* out) {
  const char* p = token.data();
  const char* end = p + token.size();
  if (end - p > 1 && *p == '+' && p[1] != '-') ++p;
  const bool negative = p < end && *p == '-';
  if (negative) ++p;
  if (p == end) return IntToken::kBad;
  uint64_t magnitude = 0;
  bool overflow = false;
  ScanDigits(&p, end, MagnitudeLimit(negative), &magnitude, &overflow);
  if (p != end) return IntToken::kBad;
  if (overflow) return IntToken::kOverflow;
  *out = Signed(magnitude, negative);
  return IntToken::kOk;
}

/// Parses a fractional token ([sign]digits.digits, either side may be
/// empty) as strtod did: from_chars takes no leading '+', and reports
/// underflow as out of range where strtod yields the nearest value (zero
/// or a subnormal) — only an infinite result is an overflow.
bool ParseDouble(std::string_view token, double* v) {
  std::string_view digits = token;
  if (digits[0] == '+') digits.remove_prefix(1);
  if (std::from_chars(digits.data(), digits.data() + digits.size(), *v).ec ==
      std::errc::result_out_of_range) {
    const std::string s(token);
    *v = std::strtod(s.c_str(), nullptr);
    return !std::isinf(*v);
  }
  return true;
}

/// Registers `chunk`'s new names in `*schema` in first-seen order and
/// rewrites its events' chunk-local ids to the registered ones. Returns
/// whether the chunk had any.
bool CommitNames(TraceChunk* chunk, Schema* schema,
                 std::vector<uint32_t>* remap) {
  if (chunk->new_names.empty()) return false;
  remap->clear();
  for (const TraceChunk::NewName& n : chunk->new_names) {
    remap->push_back(n.is_type ? schema->RegisterEventType(n.name)
                               : schema->RegisterAttribute(n.name));
  }
  constexpr uint32_t kLocal = TraceChunk::kLocalId;
  for (size_t i = 0; i < chunk->num_events; ++i) {
    Event& e = chunk->events[i];
    if (e.type() & kLocal) e.set_type((*remap)[e.type() & ~kLocal]);
    for (auto& [attr, value] : e.mutable_attrs()) {
      if (attr & kLocal) attr = (*remap)[attr & ~kLocal];
    }
  }
  return true;
}

}  // namespace

TraceReadSet TraceReadSet::Of(std::span<const CompiledQuery> queries) {
  TraceReadSet reads;
  auto mark = [](std::vector<bool>* set, uint32_t id) {
    if (id == UINT32_MAX) return;  // unresolved: no event carries it
    if (id >= set->size()) set->resize(id + 1);
    (*set)[id] = true;
  };
  for (const CompiledQuery& q : queries) {
    for (const PatternElement& e : q.pattern().elements()) {
      mark(&reads.types, e.type);
    }
    for (const Comparison& c : q.query().where.terms) {
      for (const Operand* op : {&c.lhs, &c.rhs}) {
        if (op->is_attr_ref()) mark(&reads.attrs, op->attr);
      }
    }
    for (const PartitionSpec::Part& part : q.partition_spec().parts) {
      mark(&reads.attrs, part.attr);
    }
    if (q.agg().func != AggFunc::kCount) mark(&reads.attrs, q.agg().attr);
  }
  return reads;
}

size_t TraceParseThreads(unsigned hardware_threads) {
  if (hardware_threads < 2) return 0;
  return std::min<size_t>(hardware_threads - 1, 3);
}

// ---------------------------------------------------------------------------
// TraceChunker
// ---------------------------------------------------------------------------

TraceChunker::TraceChunker(std::FILE* file, std::string path,
                           size_t chunk_bytes)
    : file_(file), path_(std::move(path)), chunk_bytes_(chunk_bytes) {}

bool TraceChunker::Next(TraceChunk* chunk) {
  if (!status_.ok() || exhausted()) return false;
  // The buffer is allocated uninitialized on first use, so an empty trace
  // touches none of it; it holds the carried partial line plus a block.
  size_t cap = std::max(chunk_bytes_, 2 * carry_.size());
  if (chunk->capacity < cap) {
    chunk->text.reset(new char[cap]);
    chunk->capacity = cap;
  }
  char* text = chunk->text.get();
  std::memcpy(text, carry_.data(), carry_.size());
  size_t size = carry_.size();
  carry_.clear();
  size_t cut = 0;  // bytes up to and including the last '\n'
  for (;;) {
    if (!eof_) {
      const size_t want = cap - size;
      const size_t got = std::fread(text + size, 1, want, file_);
      size += got;
      bytes_ += got;
      if (got < want) {
        eof_ = true;
        if (std::ferror(file_)) {
          status_ = Status::IoError("error reading trace file: " + path_);
        }
      }
    }
    cut = size;
    while (cut > 0 && text[cut - 1] != '\n') --cut;
    if (eof_ || cut > 0) break;
    // A line longer than the whole block: double the block and read on.
    cap *= 2;
    if (chunk->capacity < cap) {
      std::unique_ptr<char[]> grown(new char[cap]);
      std::memcpy(grown.get(), text, size);
      chunk->text = std::move(grown);
      chunk->capacity = cap;
      text = chunk->text.get();
    }
  }
  if (!status_.ok()) {
    size = cut;  // the lines before the failed read; the partial one is lost
  } else if (!eof_) {
    carry_.assign(text + cut, size - cut);
    size = cut;
  }
  if (size == 0) return false;
  chunk->size = size;
  chunk->index = next_index_++;
  return true;
}

Status TraceChunker::Rewind() {
  carry_.clear();
  eof_ = false;
  next_index_ = 0;
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    status_ = Status::IoError("cannot rewind trace (not seekable): " + path_);
    eof_ = true;
  } else {
    std::clearerr(file_);
    status_ = Status::OK();
  }
  return status_;
}

// ---------------------------------------------------------------------------
// TraceChunkParser
// ---------------------------------------------------------------------------

void TraceChunkParser::Parse(std::string_view text, const Schema& names,
                             TraceChunk* out) {
  names_ = &names;
  chunk_ = out;
  lineno_ = 0;
  prev_ts_ = INT64_MIN;
  ++epoch_;
  local_types_.clear();
  local_attrs_.clear();
  out->num_events = 0;
  out->new_names.clear();
  out->first_ts_line = 0;
  out->error_line = 0;
  out->error.clear();
  out->values_parsed = 0;
  out->values_skipped = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (p < end) {
    ++lineno_;
    if (out->num_events == out->events.size()) out->events.emplace_back();
    const Line kind = ParseLine(&p, end, &out->events[out->num_events]);
    if (kind == Line::kError) break;
    if (kind == Line::kEvent) ++out->num_events;
  }
  out->lines = lineno_;
}

TraceChunkParser::Line TraceChunkParser::Fail(std::string message) {
  chunk_->error_line = lineno_;
  chunk_->error = std::move(message);
  return Line::kError;
}

uint32_t TraceChunkParser::Resolve(bool is_type, std::string_view name) {
  auto found = is_type ? names_->FindEventType(name)
                       : names_->FindAttribute(name);
  if (found.ok()) return *found;
  // Not published yet: a chunk-local id, kLocalId | its index in
  // new_names (a schema never nears 2^31 names).
  auto& local = is_type ? local_types_ : local_attrs_;
  const auto [it, inserted] = local.try_emplace(
      std::string(name),
      TraceChunk::kLocalId | static_cast<uint32_t>(chunk_->new_names.size()));
  if (inserted) {
    chunk_->new_names.push_back({is_type, lineno_, std::string(name)});
  }
  return it->second;
}

const TraceChunkParser::NameSlot& TraceChunkParser::Lookup(
    NameSlot* slot, bool is_type, std::string_view name, uint64_t w0,
    uint64_t w1) {
  // A hit compares the size and two words; only a name longer than 16
  // bytes compares its bytes.
  if (slot->id == UINT32_MAX || (slot->epoch != 0 && slot->epoch != epoch_) ||
      slot->size != name.size() || slot->w0 != w0 || slot->w1 != w1 ||
      (name.size() > 16 && slot->name != name)) {
    slot->id = Resolve(is_type, name);
    slot->read = reads_ == nullptr || (is_type ? reads_->ReadsType(slot->id)
                                               : reads_->ReadsAttr(slot->id));
    slot->epoch = (slot->id & TraceChunk::kLocalId) ? epoch_ : 0;
    slot->size = name.size();
    slot->w0 = w0;
    slot->w1 = w1;
    slot->name.assign(name);
  }
  return *slot;
}

bool TraceChunkParser::Holds(const NameSlot& slot, const char* p,
                             const char* end) const {
  // The slot's name and a '=' right after it: a scan would stop there and
  // trim nothing (a cached name holds no delimiter and no trailing space).
  const size_t n = slot.size;
  if (slot.id == UINT32_MAX || (slot.epoch != 0 && slot.epoch != epoch_) ||
      n >= 16 || static_cast<size_t>(end - p) <= n || p[n] != '=') {
    return false;
  }
  if ((Load8(p, end) & LowBytes(n)) != slot.w0) return false;
  return n <= 8 || (Load8(p + 8, end) & LowBytes(n - 8)) == slot.w1;
}

TraceChunkParser::Line TraceChunkParser::ParseLine(const char** at,
                                                   const char* end,
                                                   Event* out) {
  // One forward scan: each token is found and trimmed as the scan passes
  // it, a short digit run converted on the way; other read values are
  // classified from their token. `*at` ends past the line's '\n'.
  const char* p = SkipBlanks(*at, end);
  if (p == end || *p == '\n' || *p == '#') {
    const char* nl = Find(p, end, '\n');
    *at = nl == end ? end : nl + 1;
    return Line::kSkip;
  }
  const Token type = ScanToken(p, end, false);
  if (!type.stopped_at(end, ',')) {
    return Fail("expected 'type,timestamp[,attr=value]...'");
  }
  // The type registers before the timestamp is read, as a one-line reader
  // registers it. Its cache is direct-mapped on a hash of the two words.
  const uint64_t h = (type.w0 ^ (type.w1 * 31) ^ type.size) *
                     uint64_t{0x9E3779B97F4A7C15};
  const NameSlot& type_slot =
      Lookup(&type_cache_[h >> 56], true, type.view(), type.w0, type.w1);
  out->set_type(type_slot.id);
  const bool read_type = type_slot.read;
  // The common timestamp is a short run of digits; anything else is
  // trimmed and checked whole.
  const char* stop = nullptr;
  uint64_t digits = 0;
  int64_t ts = 0;
  if (ShortDigits(type.stop + 1, end, &digits, &stop)) {
    ts = static_cast<int64_t>(digits);
  } else {
    const Token token = ScanToken(SkipBlanks(type.stop + 1, end), end, false);
    stop = token.stop;
    switch (ParseTimestamp(token.view(), &ts)) {
      case IntToken::kBad:
        return Fail("bad timestamp '" + std::string(token.view()) + "'");
      case IntToken::kOverflow:
        return Fail("timestamp '" + std::string(token.view()) +
                    "' overflows 64-bit range");
      case IntToken::kOk:
        break;
    }
  }
  if (chunk_->first_ts_line == 0) {
    chunk_->first_ts_line = lineno_;
    chunk_->first_ts = ts;
  }
  if (ts < prev_ts_) return Fail(kOutOfOrder);
  prev_ts_ = ts;
  chunk_->last_ts = ts;
  out->set_ts(ts);
  out->set_seq(0);
  out->ClearAttrs();
  for (size_t position = 0; stop != end && *stop == ','; ++position) {
    p = SkipBlanks(stop + 1, end);
    // Real traces carry a handful of attributes, each mostly at the same
    // position: the name cached there is checked in place, with no scan.
    // A hostile line with thousands of fields shares the last slot.
    NameSlot& slot = attr_cache_[std::min(position, attr_cache_.size() - 1)];
    if (Holds(slot, p, end)) {
      stop = p + slot.size;
    } else {
      const Token name = ScanToken(p, end, true);
      stop = name.stop;
      if (!name.stopped_at(end, '=')) {
        if (name.size == 0) continue;  // an empty field
        return Fail("expected attr=value, got '" +
                    std::string(name.view()) + "'");
      }
      Lookup(&slot, false, name.view(), name.w0, name.w1);
    }
    const AttrId attr = slot.id;
    const bool read = read_type && slot.read;
    ++(read ? chunk_->values_parsed : chunk_->values_skipped);
    p = SkipBlanks(stop + 1, end);
    if (read && ShortDigits(p, end, &digits, &stop)) {
      out->SetAttr(attr, Value(static_cast<int64_t>(digits)));
      continue;
    }
    // An unread value only has to be valid, and a token shorter than 19
    // bytes overflows neither an int64 nor a double: one ending within a
    // word is passed over, a longer one is parsed like a read one, then
    // dropped.
    if (const uint64_t stops = Stops(Load8(p, end)); !read && stops != 0) {
      stop = p + std::countr_zero(stops) / 8;
      continue;
    }
    const Token value = ScanToken(p, end, false);
    stop = value.stop;
    const std::string_view token = value.view();
    if (!read && token.size() < 19) continue;
    if (token.empty()) {
      out->SetAttr(attr, Value());
      continue;
    }
    // One pass classifies the token and accumulates its integer digits:
    // [sign]digits is an int64, [sign]digits.digits (either side may be
    // empty, not both) a double, anything else a string.
    const char* q = token.data();
    const char* const t_end = q + token.size();
    const bool negative = *q == '-';
    if (negative || *q == '+') ++q;
    const char* const int_begin = q;
    uint64_t magnitude = 0;
    bool overflow = false;
    ScanDigits(&q, t_end, MagnitudeLimit(negative), &magnitude, &overflow);
    bool digits = q > int_begin;
    if (q == t_end && digits) {
      if (overflow) {
        return Fail("integer value '" + std::string(token) +
                    "' overflows 64-bit range");
      }
      if (read) out->SetAttr(attr, Value(Signed(magnitude, negative)));
      continue;
    }
    if (q < t_end && *q == '.') {
      const char* const frac_begin = ++q;
      while (q < t_end && static_cast<unsigned char>(*q) - unsigned{'0'} <= 9) {
        ++q;
      }
      digits = digits || q > frac_begin;
      if (q == t_end && digits) {
        double v = 0;
        if (!ParseDouble(token, &v)) {
          return Fail("numeric value '" + std::string(token) +
                      "' overflows double range");
        }
        if (read) out->SetAttr(attr, Value(v));
        continue;
      }
    }
    if (read) out->SetAttr(attr, Value(std::string(token)));
  }
  *at = stop == end ? end : stop + 1;
  return Line::kEvent;
}

// ---------------------------------------------------------------------------
// TraceFileSource
// ---------------------------------------------------------------------------

Result<std::unique_ptr<TraceFileSource>> TraceFileSource::Open(
    const std::string& path, Schema* schema, size_t parse_threads,
    size_t chunk_bytes, const TraceReadSet* reads) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  if (chunk_bytes == 0) chunk_bytes = kTraceChunkBytes;
  return std::unique_ptr<TraceFileSource>(
      new TraceFileSource(path, file, schema, parse_threads, chunk_bytes,
                          reads));
}

TraceFileSource::TraceFileSource(std::string path, std::FILE* file,
                                 Schema* schema, size_t parse_threads,
                                 size_t chunk_bytes, const TraceReadSet* reads)
    : path_(std::move(path)),
      file_(file),
      schema_(schema),
      parse_threads_(parse_threads),
      reads_(reads != nullptr ? std::make_unique<TraceReadSet>(*reads)
                              : nullptr),
      inline_parser_(reads_.get()),
      chunker_(file, path_, chunk_bytes),
      slots_(std::max<size_t>(1, 2 * parse_threads)),
      names_(std::make_shared<const Schema>(*schema)) {
  published_names_ = schema->num_event_types() + schema->num_attributes();
}

TraceFileSource::~TraceFileSource() { StopParsers(); }

std::span<Event> TraceFileSource::BorrowBatch(size_t max) {
  size_t n = 0;
  while (n < max && !ended_) {
    if (current_ == nullptr || pos_ == current_->chunk.num_events) {
      if (!AdvanceChunk()) break;
      continue;
    }
    TraceChunk& chunk = current_->chunk;
    const size_t take = std::min(chunk.num_events - pos_, max - n);
    if (take == max) {
      // The whole batch lies in this chunk: lend it in place.
      pos_ += take;
      return {chunk.events.data() + (pos_ - take), take};
    }
    // A batch spanning chunks is assembled by swapping events into the
    // staging batch (their old storage goes back to the chunk for reuse).
    if (batch_.size() < max) batch_.resize(max);
    for (size_t i = 0; i < take; ++i) {
      std::swap(batch_[n + i], chunk.events[pos_ + i]);
    }
    n += take;
    pos_ += take;
  }
  return {batch_.data(), n};
}

bool TraceFileSource::AdvanceChunk() {
  if (!pending_.ok()) {
    EndStream(std::exchange(pending_, Status::OK()));
    return false;
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (current_ != nullptr) {
    current_->state = SlotState::kFree;
    current_ = nullptr;
    slot_freed_.notify_one();
  }
  Slot& slot = slots_[next_chunk_ % slots_.size()];
  for (;;) {
    if (failure_ != nullptr) {
      std::exception_ptr failure = failure_;
      lock.unlock();
      std::rethrow_exception(failure);
    }
    if (slot.state == SlotState::kReady) break;
    if (slot.state == SlotState::kParsing) {
      StopWatch wait;
      chunk_ready_.wait(lock);
      consumer_wait_s_ += wait.ElapsedSeconds();
      continue;
    }
    if (input_done_) {
      Status status = chunker_.status();
      lock.unlock();
      EndStream(std::move(status));
      return false;
    }
    // No parser has taken the chunk (the inline mode, the first chunk, or
    // a consumer that caught up): read and parse it here. Parser threads
    // start once the first chunk shows the trace is longer than a chunk.
    ReadAndParse(&lock, &inline_parser_);
    if (threads_.empty() && parse_threads_ > 0 && !chunker_.exhausted()) {
      StartParsers();
    }
  }
  lock.unlock();
  current_ = &slot;
  pos_ = 0;
  ++next_chunk_;
  return AdmitChunk(&slot.chunk);
}

bool TraceFileSource::AdmitChunk(TraceChunk* chunk) {
  ++chunks_taken_;
  values_parsed_ += chunk->values_parsed;
  values_skipped_ += chunk->values_skipped;
  const size_t base = line_base_;
  line_base_ += chunk->lines;
  if (chunk->first_ts_line != 0 && chunk->first_ts < prev_ts_) {
    // Out of order with the previous chunk's last event. A one-line reader
    // stops at that line having registered only its type.
    for (const TraceChunk::NewName& n : chunk->new_names) {
      if (n.is_type && n.line == chunk->first_ts_line) {
        schema_->RegisterEventType(n.name);
      }
    }
    EndStream(TraceLineError(base + chunk->first_ts_line, kOutOfOrder));
    return false;
  }
  if (CommitNames(chunk, schema_, &remap_)) {
    ++remapped_chunks_;
    remapped_events_ += chunk->num_events;
    MaybePublishNames();
  }
  if (chunk->num_events > 0) prev_ts_ = chunk->last_ts;
  if (chunk->error_line != 0) {
    pending_ = TraceLineError(base + chunk->error_line, chunk->error);
  }
  return true;
}

void TraceFileSource::MaybePublishNames() {
  // A copy costs about as much per name as a remap per event, so the
  // table is copied once the remaps it would have saved cost as much: the
  // copies stay linear in the trace even when every line brings a name.
  const size_t names = schema_->num_event_types() + schema_->num_attributes();
  if (names == published_names_ || remapped_events_ < names) return;
  auto table = std::make_shared<const Schema>(*schema_);
  published_names_ = names;
  remapped_events_ = 0;
  std::lock_guard<std::mutex> lock(mu_);
  names_ = std::move(table);
}

void TraceFileSource::StartParsers() {
  threads_run_ = std::max(threads_run_, parse_threads_);
  for (size_t i = 0; i < parse_threads_; ++i) {
    try {
      threads_.emplace_back([this] { ParserLoop(); });
    } catch (const std::system_error&) {
      // No thread to be had: the consumer parses what the others leave.
      threads_run_ = threads_.size();
      break;
    }
  }
}

void TraceFileSource::StopParsers() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  slot_freed_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  stop_ = false;
}

void TraceFileSource::ReadAndParse(std::unique_lock<std::mutex>* lock,
                                   TraceChunkParser* parser) {
  Slot& slot = slots_[chunks_read_ % slots_.size()];
  std::exception_ptr failure;
  try {
    if (!chunker_.Next(&slot.chunk)) {
      input_done_ = true;
      slot_freed_.notify_all();
      return;
    }
  } catch (...) {
    failure = std::current_exception();
  }
  if (failure == nullptr) {
    ++chunks_read_;
    slot.state = SlotState::kParsing;
    std::shared_ptr<const Schema> names = names_;
    lock->unlock();
    StopWatch busy;
    try {
      parser->Parse(slot.chunk.view(), *names, &slot.chunk);
    } catch (...) {
      failure = std::current_exception();
    }
    const double busy_s = busy.ElapsedSeconds();
    lock->lock();
    parse_busy_s_ += busy_s;
  }
  if (failure != nullptr) {
    // An allocation failure, say: nothing more is read, and the consumer
    // rethrows it from BorrowBatch (the slot stays unready).
    failure_ = failure;
    input_done_ = true;
    slot_freed_.notify_all();
  } else {
    slot.state = SlotState::kReady;
  }
  chunk_ready_.notify_one();
}

void TraceFileSource::ParserLoop() {
  TraceChunkParser parser(reads_.get());
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    slot_freed_.wait(lock, [this] {
      return stop_ || input_done_ ||
             slots_[chunks_read_ % slots_.size()].state == SlotState::kFree;
    });
    if (stop_ || input_done_) return;
    ReadAndParse(&lock, &parser);
  }
}

void TraceFileSource::EndStream(Status status) {
  ended_ = true;
  status_ = std::move(status);
  StopParsers();
}

void TraceFileSource::Reset() {
  StopParsers();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (Slot& slot : slots_) slot.state = SlotState::kFree;
    chunks_read_ = 0;
    input_done_ = false;
    failure_ = nullptr;
    status_ = chunker_.Rewind();
  }
  current_ = nullptr;
  pos_ = 0;
  next_chunk_ = 0;
  line_base_ = 0;
  prev_ts_ = INT64_MIN;
  pending_ = Status::OK();
  ended_ = !status_.ok();
}

IngestStats TraceFileSource::ingest_stats() const {
  IngestStats stats;
  stats.parse_threads = threads_run_;
  stats.chunks = chunks_taken_;
  stats.consumer_wait_s = consumer_wait_s_;
  stats.remapped_chunks = remapped_chunks_;
  stats.values_parsed = values_parsed_;
  stats.values_skipped = values_skipped_;
  std::lock_guard<std::mutex> lock(mu_);
  stats.bytes = chunker_.bytes();
  stats.parse_busy_s = parse_busy_s_;
  return stats;
}

// ---------------------------------------------------------------------------
// Whole-trace readers and the writer
// ---------------------------------------------------------------------------

Result<std::vector<Event>> ReadTraceFile(const std::string& path,
                                         Schema* schema) {
  // All registrations go into a staging copy that is committed only when
  // the whole trace parses: a malformed line must not leave the caller's
  // schema with half the file's types/attributes registered.
  Schema staging = *schema;
  ASEQ_ASSIGN_OR_RETURN(auto source, TraceFileSource::Open(path, &staging));
  std::vector<Event> events;
  for (;;) {
    std::span<Event> batch = source->BorrowBatch(kDrainBatch);
    if (batch.empty()) break;
    events.insert(events.end(), batch.begin(), batch.end());
  }
  ASEQ_RETURN_NOT_OK(source->status());
  *schema = std::move(staging);
  return events;
}

Result<std::vector<Event>> ParseTrace(const std::string& content,
                                      Schema* schema) {
  // The whole string is one chunk of the same kernel, staged like
  // ReadTraceFile: the caller's schema changes only on success.
  Schema staging = *schema;
  TraceChunkParser parser;
  TraceChunk chunk;
  chunk.events.reserve(std::count(content.begin(), content.end(), '\n') + 1);
  parser.Parse(content, staging, &chunk);
  if (chunk.error_line != 0) {
    return TraceLineError(chunk.error_line, chunk.error);
  }
  std::vector<uint32_t> remap;
  CommitNames(&chunk, &staging, &remap);
  chunk.events.resize(chunk.num_events);
  *schema = std::move(staging);
  return std::move(chunk.events);
}

std::string FormatTrace(const std::vector<Event>& events,
                        const Schema& schema) {
  std::string out;
  for (const Event& e : events) {
    out += schema.EventTypeName(e.type());
    out += ",";
    out += std::to_string(e.ts());
    for (const auto& [attr, value] : e.attrs()) {
      out += ",";
      out += schema.AttributeName(attr);
      out += "=";
      out += value.ToString();
    }
    out += "\n";
  }
  return out;
}

Status WriteTraceFile(const std::string& path, const std::vector<Event>& events,
                      const Schema& schema) {
  std::ofstream out(path);
  if (!out) {
    return Status::IoError("cannot open trace file for writing: " + path);
  }
  out << FormatTrace(events, schema);
  if (!out) {
    return Status::IoError("error writing trace file: " + path);
  }
  return Status::OK();
}

}  // namespace aseq
