#include "eval/flags.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string_view>

#include "common/strings.h"

namespace edgeshed::eval {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg(argv[i]);
    if (!arg.starts_with("--")) {
      positional_.emplace_back(arg);
      continue;
    }
    arg.remove_prefix(2);
    size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      values_[std::string(arg.substr(0, eq))] =
          std::string(arg.substr(eq + 1));
    } else if (i + 1 < argc && argv[i + 1][0] != '-') {
      values_[std::string(arg)] = argv[i + 1];
      ++i;
    } else {
      values_[std::string(arg)] = "true";
    }
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.contains(name);
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atof(it->second.c_str());
}

int64_t Flags::GetInt(const std::string& name, int64_t default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : std::atoll(it->second.c_str());
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> names;
  names.reserve(values_.size());
  for (const auto& [name, value] : values_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

const char* FlagTypeName(FlagType type) {
  switch (type) {
    case FlagType::kString:
      return "string";
    case FlagType::kInt:
      return "int";
    case FlagType::kDouble:
      return "double";
    case FlagType::kBool:
      return "bool";
  }
  return "?";
}

namespace {

/// True when all of `value` parses as a T.
template <typename T>
bool ParsesAs(std::string_view value) {
  T parsed{};
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
  return ec == std::errc() && ptr == end;
}

bool ValueParses(FlagType type, std::string_view value) {
  switch (type) {
    case FlagType::kString:
      return true;
    case FlagType::kInt:
      return ParsesAs<int64_t>(value);
    case FlagType::kDouble:
      return ParsesAs<double>(value);
    case FlagType::kBool:
      return value == "true" || value == "false" || value == "1" ||
             value == "0";
  }
  return false;
}

}  // namespace

Status ValidateFlags(const Flags& flags, std::span<const FlagSpec> accepted) {
  for (const std::string& name : flags.names()) {
    const auto spec =
        std::find_if(accepted.begin(), accepted.end(),
                     [&](const FlagSpec& s) { return name == s.name; });
    if (spec == accepted.end()) {
      return Status::InvalidArgument("unknown flag --" + name);
    }
    const std::string value = flags.GetString(name, "");
    if (!ValueParses(spec->type, value)) {
      return Status::InvalidArgument(
          StrFormat("flag --%s: '%s' does not parse as %s", name.c_str(),
                    value.c_str(), FlagTypeName(spec->type)));
    }
  }
  return Status::OK();
}

}  // namespace edgeshed::eval
