#ifndef ASEQ_CLI_FLAGS_H_
#define ASEQ_CLI_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"

namespace aseq {

/// \brief Minimal command-line flag parser for the aseq CLI.
///
/// Understands `--name value`, `--name=value`, and bare `--name` (boolean);
/// everything before the first `--flag` is collected as positional
/// arguments (the command words). It knows no flag names: the aseq CLI
/// checks names, values and defaults against its flag table (cli.cc).
class FlagSet {
 public:
  /// Parses argv (excluding argv[0]).
  static Result<FlagSet> Parse(const std::vector<std::string>& args);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& name) const { return flags_.count(name) > 0; }

  /// String flag with default.
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;

  /// Integer flag with default; a value that is not a 64-bit integer is
  /// InvalidArgument.
  Result<int64_t> GetInt(const std::string& name, int64_t def) const;

  /// Every flag given, name -> value (a bare flag's value is "true").
  const std::map<std::string, std::string>& given() const { return flags_; }

 private:
  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace aseq

#endif  // ASEQ_CLI_FLAGS_H_
