#ifndef EDGESHED_EVAL_FLAGS_H_
#define EDGESHED_EVAL_FLAGS_H_

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace edgeshed::eval {

/// Minimal command-line parser for the CLI and the bench/example binaries.
/// Accepts "--name=value", "--name value", and bare "--flag" (= "true").
/// Every flag is kept whatever its name; names() lists the given ones, and
/// ValidateFlags rejects those a caller does not accept.
class Flags {
 public:
  Flags(int argc, char** argv);

  bool Has(const std::string& name) const;
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  double GetDouble(const std::string& name, double default_value) const;
  int64_t GetInt(const std::string& name, int64_t default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  /// Names of the flags that were given, sorted.
  std::vector<std::string> names() const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::unordered_map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

enum class FlagType { kString, kInt, kDouble, kBool };

/// One flag a command accepts.
struct FlagSpec {
  const char* name;
  FlagType type;
};

/// "string", "int", "double" or "bool".
const char* FlagTypeName(FlagType type);

/// InvalidArgument naming the first given flag (in name order) that
/// `accepted` does not list, or whose value does not parse completely as
/// its type: an int is a whole base-10 int64, a double a whole
/// floating-point literal, a bool one of true/false/1/0.
Status ValidateFlags(const Flags& flags, std::span<const FlagSpec> accepted);

/// Parses argv for a program that takes exactly the flags in `accepted` and
/// no positional argument. An unknown flag, a value that does not parse as
/// its type, or a positional argument prints the error and the accepted
/// flags to stderr and exits 2.
Flags ParseFlagsOrExit(int argc, char** argv,
                       std::span<const FlagSpec> accepted);

}  // namespace edgeshed::eval

#endif  // EDGESHED_EVAL_FLAGS_H_
