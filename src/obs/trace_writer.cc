#include "obs/trace_writer.h"

#include <cstdio>
#include <sstream>

namespace aseq {
namespace obs {
namespace {

// Raw-number sentinel: values prefixed with '\x01' are emitted unquoted.
constexpr char kRawNumber = '\x01';

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TraceWriter::TraceWriter(const std::string& path, uint64_t epoch_ns,
                         size_t num_shards)
    : out_(path, std::ios::out | std::ios::trunc), epoch_ns_(epoch_ns) {
  ok_ = out_.is_open();
  if (!ok_) return;
  out_ << "[";
  // Thread metadata makes lanes readable in the viewer: shard workers sort
  // first, the coordinator row last.
  for (size_t s = 0; s < num_shards; ++s) {
    std::ostringstream meta;
    meta << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << s
         << ",\"args\":{\"name\":\"shard " << s << "\"}}";
    EmitLocked(meta.str());
  }
  std::ostringstream meta;
  meta << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
       << kCoordTid << ",\"args\":{\"name\":\"coordinator\"}}";
  EmitLocked(meta.str());
}

TraceWriter::~TraceWriter() { Close(); }

std::pair<std::string, std::string> TraceWriter::NumArg(const std::string& key,
                                                        uint64_t value) {
  return {key, std::string(1, kRawNumber) + std::to_string(value)};
}

void TraceWriter::EmitLocked(const std::string& json) {
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << json;
}

void TraceWriter::WriteArgsLocked(const Args& args) {
  out_ << ",\"args\":{";
  bool first = true;
  for (const auto& [k, v] : args) {
    if (!first) out_ << ",";
    first = false;
    out_ << "\"" << JsonEscape(k) << "\":";
    if (!v.empty() && v[0] == kRawNumber) {
      out_ << v.substr(1);
    } else {
      out_ << "\"" << JsonEscape(v) << "\"";
    }
  }
  out_ << "}";
}

void TraceWriter::Span(const char* name, int64_t tid, uint64_t begin_ns,
                       uint64_t end_ns, const Args& args) {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  const uint64_t rel = begin_ns >= epoch_ns_ ? begin_ns - epoch_ns_ : 0;
  const uint64_t dur = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"X\",\"pid\":1"
       << ",\"tid\":" << tid << ",\"ts\":" << rel / 1000 << "."
       << (rel % 1000) / 100 << ",\"dur\":" << dur / 1000 << "."
       << (dur % 1000) / 100;
  if (!args.empty()) WriteArgsLocked(args);
  out_ << "}";
}

void TraceWriter::Instant(const char* name, int64_t tid, uint64_t at_ns,
                          const Args& args) {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  const uint64_t rel = at_ns >= epoch_ns_ ? at_ns - epoch_ns_ : 0;
  if (!first_) out_ << ",\n";
  first_ = false;
  out_ << "{\"name\":\"" << JsonEscape(name) << "\",\"ph\":\"i\",\"s\":\"p\""
       << ",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << rel / 1000 << "."
       << (rel % 1000) / 100;
  if (!args.empty()) WriteArgsLocked(args);
  out_ << "}";
}

void TraceWriter::Flush() {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (!closed_) out_.flush();
}

void TraceWriter::Close() {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  out_ << "]\n";
  out_.close();
}

}  // namespace obs
}  // namespace aseq
