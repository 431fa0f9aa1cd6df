#include "common/event.h"

#include <memory>
#include <new>
#include <utility>

namespace aseq {

Event::Event(const Event& other) { *this = other; }

Event::Event(Event&& other) noexcept { *this = std::move(other); }

Event& Event::operator=(const Event& other) {
  if (this == &other) return *this;
  type_ = other.type_;
  ts_ = other.ts_;
  seq_ = other.seq_;
  ClearAttrs();
  Reserve(other.size());
  std::uninitialized_copy_n(other.data(), other.size(), data());
  count_ |= other.size();
  return *this;
}

Event& Event::operator=(Event&& other) noexcept {
  if (this == &other) return *this;
  if (!other.on_heap()) {
    // At most kInlineAttrs pairs, held in place: copying them needs no
    // block.
    *this = other;
    other.ClearAttrs();
    return *this;
  }
  // Take the block; the other event is left empty.
  type_ = other.type_;
  ts_ = other.ts_;
  seq_ = other.seq_;
  Release();
  heap_ = other.heap_;
  count_ = std::exchange(other.count_, 0);
  return *this;
}

Event::~Event() { Release(); }

void Event::Release() {
  ClearAttrs();
  if (on_heap()) {
    ::operator delete(heap_.data);
    count_ = 0;
  }
}

void Event::Grow(uint32_t n) {
  const uint32_t cap = std::max(n, 2 * capacity());
  Attr* block = static_cast<Attr*>(::operator new(cap * sizeof(Attr)));
  const uint32_t size = this->size();
  std::uninitialized_move_n(data(), size, block);
  Release();
  heap_ = {block, cap};
  count_ = kOnHeap | size;
}

std::string Event::ToString(const Schema& schema) const {
  std::string out = schema.EventTypeName(type_);
  out += "@";
  out += std::to_string(ts_);
  if (size() > 0) {
    out += "{";
    bool first = true;
    for (const auto& kv : attrs()) {
      if (!first) out += ",";
      first = false;
      out += schema.AttributeName(kv.first);
      out += "=";
      out += kv.second.ToString();
    }
    out += "}";
  }
  return out;
}

}  // namespace aseq
