#include "stream/trace_io.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>

namespace aseq {

namespace {

/// Bytes read from a trace file per fread.
constexpr size_t kReadChunkBytes = size_t{1} << 20;
/// Events per BorrowBatch when ReadTraceFile drains a source.
constexpr size_t kDrainBatch = 256;
/// Attribute positions per line whose names TraceLineParser caches.
constexpr size_t kCachedAttrPositions = 64;

/// from_chars over a token that strtoll/strtod would accept with a single
/// leading '+' (from_chars takes none). A '+' followed by another sign is
/// left in place so the parse fails, as it does for strtoll/strtod.
template <typename T>
std::from_chars_result FromChars(std::string_view token, T* value) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-') {
    token.remove_prefix(1);
  }
  return std::from_chars(token.data(), token.data() + token.size(), *value);
}

/// Parses a CSV value token into the narrowest matching Value type.
/// Numeric-looking tokens that overflow their type are an error — silently
/// saturating to INT64_MAX/inf would corrupt aggregates downstream.
Status ParseValueToken(std::string_view token, Value* out) {
  if (token.empty()) {
    *out = Value();
    return Status::OK();
  }
  bool digits = false, dot = false, other = false;
  size_t start = (token[0] == '-' || token[0] == '+') ? 1 : 0;
  if (start == token.size()) other = true;
  for (size_t i = start; i < token.size(); ++i) {
    char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      digits = true;
    } else if (c == '.' && !dot) {
      dot = true;
    } else {
      other = true;
      break;
    }
  }
  if (other || !digits) {
    *out = Value(std::string(token));
    return Status::OK();
  }
  if (!dot) {
    int64_t v = 0;
    if (FromChars(token, &v).ec == std::errc::result_out_of_range) {
      return Status::ParseError("integer value '" + std::string(token) +
                                "' overflows 64-bit range");
    }
    *out = Value(v);
    return Status::OK();
  }
  double v = 0;
  if (FromChars(token, &v).ec == std::errc::result_out_of_range) {
    // from_chars also reports underflow, where strtod yields the nearest
    // value (zero or a subnormal) — a value, not an error. Only an
    // infinite result is an overflow.
    const std::string s(token);
    v = std::strtod(s.c_str(), nullptr);
    if (std::isinf(v)) {
      return Status::ParseError("numeric value '" + s +
                                "' overflows double range");
    }
  }
  *out = Value(v);
  return Status::OK();
}

/// isspace in the "C" locale (the program never switches locale), inlined:
/// the parser trims a dozen tokens per line.
inline bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

inline std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && IsSpace(s[b])) ++b;
  size_t e = s.size();
  while (e > b && IsSpace(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// The field before the next ',' of `*rest` (all of it when there is
/// none); advances `*rest` past that comma. Returns false when `*rest`
/// had no comma, i.e. the returned field is the line's last.
bool NextField(std::string_view* rest, std::string_view* field) {
  const size_t comma = rest->find(',');
  *field = rest->substr(0, comma);
  if (comma == std::string_view::npos) return false;
  rest->remove_prefix(comma + 1);
  return true;
}

}  // namespace

Status TraceLineParser::LineError(const std::string& what) const {
  return Status::ParseError("trace line " + std::to_string(lineno_) + ": " +
                            what);
}

EventTypeId TraceLineParser::TypeIdFor(std::string_view name) {
  // Direct-mapped on an FNV-1a hash of the name: a trace's handful of type
  // names rarely collide, so nearly every line skips the schema's lookup.
  uint32_t h = 2166136261u;
  for (char c : name) h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
  NameSlot& slot = type_cache_[h % type_cache_.size()];
  if (slot.id == kInvalidEventType || slot.name != name) {
    slot.id = schema_->RegisterEventType(name);
    slot.name.assign(name);
  }
  return slot.id;
}

AttrId TraceLineParser::AttrIdAt(size_t position, std::string_view name) {
  // Real traces carry a handful of attributes; a hostile line with
  // thousands of fields must not grow the cache with it.
  if (position >= kCachedAttrPositions) {
    return schema_->RegisterAttribute(name);
  }
  if (position >= attr_cache_.size()) attr_cache_.resize(position + 1);
  NameSlot& slot = attr_cache_[position];
  if (slot.id == kInvalidAttr || slot.name != name) {
    slot.id = schema_->RegisterAttribute(name);
    slot.name.assign(name);
  }
  return slot.id;
}

Status TraceLineParser::ParseLine(std::string_view line, Event* out,
                                  bool* is_event) {
  ++lineno_;
  *is_event = false;
  std::string_view rest = Trim(line);
  if (rest.empty() || rest[0] == '#') return Status::OK();
  std::string_view field;
  if (!NextField(&rest, &field)) {
    return LineError("expected 'type,timestamp[,attr=value]...'");
  }
  out->set_type(TypeIdFor(Trim(field)));
  bool more = NextField(&rest, &field);
  const std::string_view ts_token = Trim(field);
  int64_t ts = 0;
  const auto [ptr, ec] = FromChars(ts_token, &ts);
  // A partial parse is "bad" before it is "overflowing", as with strtoll:
  // `99999999999999999999999x` is a bad timestamp.
  if (ec == std::errc::invalid_argument ||
      ptr != ts_token.data() + ts_token.size()) {
    return LineError("bad timestamp '" + std::string(ts_token) + "'");
  }
  if (ec == std::errc::result_out_of_range) {
    return LineError("timestamp '" + std::string(ts_token) +
                     "' overflows 64-bit range");
  }
  if (ts < prev_ts_) {
    return LineError(
        "out-of-order timestamp (the stream must be in arrival order)");
  }
  prev_ts_ = ts;
  out->set_ts(ts);
  out->set_seq(0);
  out->ClearAttrs();
  for (size_t position = 0; more; ++position) {
    more = NextField(&rest, &field);
    field = Trim(field);
    if (field.empty()) continue;
    const size_t eq = field.find('=');
    if (eq == std::string_view::npos) {
      return LineError("expected attr=value, got '" + std::string(field) +
                       "'");
    }
    const AttrId attr = AttrIdAt(position, Trim(field.substr(0, eq)));
    Value value;
    Status parsed = ParseValueToken(Trim(field.substr(eq + 1)), &value);
    if (!parsed.ok()) return LineError(parsed.message());
    out->SetAttr(attr, std::move(value));
  }
  *is_event = true;
  return Status::OK();
}

Result<std::unique_ptr<TraceFileSource>> TraceFileSource::Open(
    const std::string& path, Schema* schema) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open trace file: " + path);
  }
  return std::unique_ptr<TraceFileSource>(
      new TraceFileSource(path, file, schema));
}

TraceFileSource::TraceFileSource(std::string path, std::FILE* file,
                                 Schema* schema)
    : path_(std::move(path)), file_(file), parser_(schema) {}

bool TraceFileSource::NextLine(std::string_view* line) {
  for (;;) {
    if (begin_ < end_) {
      const char* data = buf_.get();
      if (const void* nl = std::memchr(data + begin_, '\n', end_ - begin_)) {
        const size_t at =
            static_cast<size_t>(static_cast<const char*>(nl) - data);
        *line = std::string_view(data + begin_, at - begin_);
        begin_ = at + 1;
        return true;
      }
    }
    if (eof_) {
      if (begin_ == end_) return false;
      // The last line has no '\n'.
      *line = std::string_view(buf_.get() + begin_, end_ - begin_);
      begin_ = end_;
      return true;
    }
    // Carry the partial line to the buffer's front and refill behind it.
    // The buffer is allocated on first use, uninitialized, so an empty
    // trace touches none of it; a line longer than the whole buffer
    // doubles it.
    if (buf_ == nullptr) {
      buf_.reset(new char[kReadChunkBytes]);
      cap_ = kReadChunkBytes;
    }
    std::memmove(buf_.get(), buf_.get() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (end_ == cap_) {
      std::unique_ptr<char[]> grown(new char[2 * cap_]);
      std::memcpy(grown.get(), buf_.get(), end_);
      buf_ = std::move(grown);
      cap_ *= 2;
    }
    const size_t got = std::fread(buf_.get() + end_, 1, cap_ - end_, file_.get());
    end_ += got;
    if (got == 0) {
      eof_ = true;
      if (std::ferror(file_.get())) {
        status_ = Status::IoError("error reading trace file: " + path_);
        return false;
      }
    }
  }
}

bool TraceFileSource::Next(Event* out) {
  if (!status_.ok()) return false;
  std::string_view line;
  while (NextLine(&line)) {
    bool is_event = false;
    Status s = parser_.ParseLine(line, out, &is_event);
    if (!s.ok()) {
      status_ = std::move(s);
      return false;
    }
    if (is_event) return true;
  }
  return false;
}

std::span<Event> TraceFileSource::BorrowBatch(size_t max) {
  if (batch_.size() < max) batch_.resize(max);
  size_t n = 0;
  while (n < max && Next(&batch_[n])) ++n;
  return {batch_.data(), n};
}

void TraceFileSource::Reset() {
  std::rewind(file_.get());
  parser_.Restart();
  begin_ = end_ = 0;
  eof_ = false;
  status_ = Status::OK();
}

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
  // Staged like ReadTraceFile: the caller's schema changes only on success.
  Schema staging = *schema;
  TraceLineParser parser(&staging);
  std::vector<Event> events;
  Event e;
  const std::string_view text(content);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    bool is_event = false;
    ASEQ_RETURN_NOT_OK(
        parser.ParseLine(text.substr(pos, nl - pos), &e, &is_event));
    if (is_event) events.push_back(e);
    pos = nl + 1;
  }
  *schema = std::move(staging);
  return events;
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
