#include "ckpt/ckpt.h"

#include <cstring>

#include "query/compiled_query.h"

namespace aseq {
namespace ckpt {

namespace {

std::string TruncatedMessage(const char* what, size_t need, size_t have,
                             size_t offset) {
  return std::string("snapshot truncated: need ") + std::to_string(need) +
         " byte(s) for " + what + " at payload offset " +
         std::to_string(offset) + ", have " + std::to_string(have);
}

}  // namespace

void Writer::WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }

void Writer::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void Writer::WriteDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void Writer::WriteString(std::string_view s) {
  WriteU64(s.size());
  buf_.append(s.data(), s.size());
}

Status Reader::Need(size_t n, const char* what) {
  if (remaining() < n) {
    return Status::ParseError(TruncatedMessage(what, n, remaining(), pos_));
  }
  return Status::OK();
}

Status Reader::ReadU8(uint8_t* v, const char* what) {
  ASEQ_RETURN_NOT_OK(Need(1, what));
  *v = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status Reader::ReadBool(bool* v, const char* what) {
  uint8_t b = 0;
  ASEQ_RETURN_NOT_OK(ReadU8(&b, what));
  if (b > 1) {
    return Status::ParseError(std::string("snapshot corrupt: boolean field ") +
                              what + " holds " + std::to_string(b));
  }
  *v = b != 0;
  return Status::OK();
}

Status Reader::ReadU32(uint32_t* v, const char* what) {
  ASEQ_RETURN_NOT_OK(Need(4, what));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status Reader::ReadU64(uint64_t* v, const char* what) {
  ASEQ_RETURN_NOT_OK(Need(8, what));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status Reader::ReadI64(int64_t* v, const char* what) {
  uint64_t u = 0;
  ASEQ_RETURN_NOT_OK(ReadU64(&u, what));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status Reader::ReadDouble(double* v, const char* what) {
  uint64_t bits = 0;
  ASEQ_RETURN_NOT_OK(ReadU64(&bits, what));
  std::memcpy(v, &bits, sizeof(*v));
  return Status::OK();
}

Status Reader::ReadString(std::string* s, const char* what) {
  uint64_t len = 0;
  ASEQ_RETURN_NOT_OK(ReadCount(&len, 1, what));
  s->assign(data_.substr(pos_, len));
  pos_ += len;
  return Status::OK();
}

Status Reader::ReadCount(uint64_t* n, uint64_t min_elem_bytes,
                         const char* what) {
  uint64_t count = 0;
  ASEQ_RETURN_NOT_OK(ReadU64(&count, what));
  if (min_elem_bytes > 0 && count > remaining() / min_elem_bytes) {
    return Status::ParseError(
        std::string("snapshot corrupt: count of ") + what + " (" +
        std::to_string(count) + ") exceeds the " +
        std::to_string(remaining()) + " payload byte(s) left");
  }
  *n = count;
  return Status::OK();
}

Status Reader::ExpectEnd() const {
  if (remaining() != 0) {
    return Status::ParseError("snapshot corrupt: " +
                              std::to_string(remaining()) +
                              " unconsumed payload byte(s) after restore");
  }
  return Status::OK();
}

void WriteValue(Writer* w, const Value& v) {
  w->WriteU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      w->WriteI64(v.AsInt64());
      break;
    case ValueType::kDouble:
      w->WriteDouble(v.AsDouble());
      break;
    case ValueType::kString:
      w->WriteString(v.AsString());
      break;
  }
}

Status ReadValue(Reader* r, Value* v) {
  uint8_t tag = 0;
  ASEQ_RETURN_NOT_OK(r->ReadU8(&tag, "value type tag"));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *v = Value();
      return Status::OK();
    case ValueType::kInt64: {
      int64_t i = 0;
      ASEQ_RETURN_NOT_OK(r->ReadI64(&i, "int64 value"));
      *v = Value(i);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d = 0;
      ASEQ_RETURN_NOT_OK(r->ReadDouble(&d, "double value"));
      *v = Value(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      ASEQ_RETURN_NOT_OK(r->ReadString(&s, "string value"));
      *v = Value(std::move(s));
      return Status::OK();
    }
  }
  return Status::ParseError("snapshot corrupt: unknown value type tag " +
                            std::to_string(tag));
}

void WriteEvent(Writer* w, const Event& e) {
  w->WriteU32(e.type());
  w->WriteI64(e.ts());
  w->WriteU64(e.seq());
  w->WriteU64(e.attrs().size());
  for (const auto& [attr, value] : e.attrs()) {
    w->WriteU32(attr);
    WriteValue(w, value);
  }
}

Status ReadEvent(Reader* r, Event* e) {
  uint32_t type = 0;
  int64_t ts = 0;
  uint64_t seq = 0;
  ASEQ_RETURN_NOT_OK(r->ReadU32(&type, "event type"));
  ASEQ_RETURN_NOT_OK(r->ReadI64(&ts, "event timestamp"));
  ASEQ_RETURN_NOT_OK(r->ReadU64(&seq, "event seq"));
  *e = Event(type, ts);
  e->set_seq(seq);
  uint64_t n_attrs = 0;
  ASEQ_RETURN_NOT_OK(r->ReadCount(&n_attrs, 5, "event attributes"));
  for (uint64_t i = 0; i < n_attrs; ++i) {
    uint32_t attr = 0;
    Value value;
    ASEQ_RETURN_NOT_OK(r->ReadU32(&attr, "event attribute id"));
    ASEQ_RETURN_NOT_OK(ReadValue(r, &value));
    e->SetAttr(attr, std::move(value));
  }
  return Status::OK();
}

void WritePartitionKey(Writer* w, const PartitionKey& key) {
  w->WriteU64(key.parts.size());
  for (const Value& v : key.parts) WriteValue(w, v);
}

Status ReadPartitionKey(Reader* r, PartitionKey* key) {
  uint64_t n = 0;
  ASEQ_RETURN_NOT_OK(r->ReadCount(&n, 1, "partition key parts"));
  key->parts.clear();
  key->parts.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    Value v;
    ASEQ_RETURN_NOT_OK(ReadValue(r, &v));
    key->parts.push_back(std::move(v));
  }
  return Status::OK();
}

void WriteStats(Writer* w, const EngineStats& s) {
  for (const StatsField& f : kStatsFields) {
    if (f.ckpt != nullptr) w->WriteU64(f.Get(s));
  }
}

Status ReadStats(Reader* r, EngineStats* s) {
  int64_t current = 0;
  for (const StatsField& f : kStatsFields) {
    if (f.ckpt == nullptr) continue;
    uint64_t v = 0;
    ASEQ_RETURN_NOT_OK(r->ReadU64(&v, f.ckpt));
    if (f.field != nullptr) {
      s->*f.field = v;
    } else if (f.object == &ObjectCounter::current) {
      current = static_cast<int64_t>(v);
    } else {  // the peak row, which follows the current row
      const int64_t peak = static_cast<int64_t>(v);
      if (current < 0 || peak < current) {
        return Status::ParseError("snapshot corrupt: object counters current=" +
                                  std::to_string(current) +
                                  " peak=" + std::to_string(peak));
      }
      s->objects.RestoreCounts(current, peak);
    }
  }
  return Status::OK();
}

Status CheckLiveObjects(const EngineStats& restored, int64_t live) {
  if (restored.objects.current() != live) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(restored.objects.current()) +
        " live objects recorded but the restored state holds " +
        std::to_string(live));
  }
  return Status::OK();
}

Status CheckSampledObjects(const EngineStats& restored, int64_t sampled,
                           int64_t live) {
  if (sampled != live) {
    return Status::ParseError(
        "snapshot corrupt: last sampled live objects " +
        std::to_string(sampled) + " but the restored sub-engines hold " +
        std::to_string(live));
  }
  return CheckLiveObjects(restored, live);
}

}  // namespace ckpt
}  // namespace aseq
