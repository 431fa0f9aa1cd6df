#include "cli/flags.h"

#include <cerrno>
#include <cstdlib>

namespace aseq {

Result<FlagSet> FlagSet::Parse(const std::vector<std::string>& args) {
  FlagSet fs;
  size_t i = 0;
  // Positional command words come first.
  while (i < args.size() && args[i].rfind("--", 0) != 0) {
    fs.positional_.push_back(args[i]);
    ++i;
  }
  for (; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      return Status::InvalidArgument(
          "positional argument after flags: '" + arg + "'");
    }
    std::string name = arg.substr(2);
    std::string value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    } else if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      value = args[++i];
    } else {
      value = "true";  // bare boolean flag
    }
    if (name.empty()) {
      return Status::InvalidArgument("empty flag name in '" + arg + "'");
    }
    fs.flags_[name] = value;
  }
  return fs;
}

std::string FlagSet::GetString(const std::string& name,
                               const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

Result<int64_t> FlagSet::GetInt(const std::string& name, int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  char* end = nullptr;
  errno = 0;
  int64_t v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    return Status::InvalidArgument("flag --" + name +
                                   " expects an integer, got '" + it->second +
                                   "'");
  }
  // strtoll saturates to INT64_MIN/MAX on overflow; never pass that off as
  // the requested value.
  if (errno == ERANGE) {
    return Status::InvalidArgument("flag --" + name + " value '" +
                                   it->second +
                                   "' is out of the 64-bit integer range");
  }
  return v;
}

}  // namespace aseq
