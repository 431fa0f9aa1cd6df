#include "engine/runtime.h"

namespace aseq {

std::string Output::ToString() const {
  std::string out = "@" + std::to_string(ts);
  if (group.has_value()) {
    out += " [" + group->ToString() + "]";
  }
  out += " " + value.ToString();
  return out;
}

void AssignSeqNums(std::vector<Event>* events) {
  SeqNum seq = 0;
  for (Event& e : *events) e.set_seq(seq++);
}

}  // namespace aseq
