#include "common/args.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/error.h"

namespace cubist {

ArgParser::ArgParser(std::string program_name, std::string program_doc)
    : program_name_(std::move(program_name)),
      program_doc_(std::move(program_doc)) {}

std::int64_t* ArgParser::add_int(const std::string& name,
                                 std::int64_t default_value,
                                 const std::string& doc) {
  CUBIST_CHECK(!flags_.count(name), "duplicate flag --" << name);
  int_storage_.push_back(std::make_unique<std::int64_t>(default_value));
  Flag flag{Kind::kInt, doc, std::to_string(default_value)};
  flag.int_target = int_storage_.back().get();
  flags_.emplace(name, flag);
  return flag.int_target;
}

double* ArgParser::add_double(const std::string& name, double default_value,
                              const std::string& doc) {
  CUBIST_CHECK(!flags_.count(name), "duplicate flag --" << name);
  double_storage_.push_back(std::make_unique<double>(default_value));
  Flag flag{Kind::kDouble, doc, std::to_string(default_value)};
  flag.double_target = double_storage_.back().get();
  flags_.emplace(name, flag);
  return flag.double_target;
}

bool* ArgParser::add_bool(const std::string& name, bool default_value,
                          const std::string& doc) {
  CUBIST_CHECK(!flags_.count(name), "duplicate flag --" << name);
  bool_storage_.push_back(std::make_unique<bool>(default_value));
  Flag flag{Kind::kBool, doc, default_value ? "true" : "false"};
  flag.bool_target = bool_storage_.back().get();
  flags_.emplace(name, flag);
  return flag.bool_target;
}

std::string* ArgParser::add_string(const std::string& name,
                                   std::string default_value,
                                   const std::string& doc) {
  CUBIST_CHECK(!flags_.count(name), "duplicate flag --" << name);
  string_storage_.push_back(std::make_unique<std::string>(default_value));
  Flag flag{Kind::kString, doc, "\"" + default_value + "\""};
  flag.string_target = string_storage_.back().get();
  flags_.emplace(name, flag);
  return flag.string_target;
}

bool ArgParser::apply(const std::string& name, const std::string& value,
                      bool value_present) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::fprintf(stderr, "unknown flag --%s\n%s", name.c_str(),
                 usage().c_str());
    return false;
  }
  Flag& flag = it->second;
  if (!value_present && flag.kind != Kind::kBool) {
    std::fprintf(stderr, "missing value for --%s\n%s", name.c_str(),
                 usage().c_str());
    return false;
  }
  try {
    switch (flag.kind) {
      case Kind::kBool:
        *flag.bool_target =
            !value_present || value == "true" || value == "1" || value == "yes";
        break;
      case Kind::kInt:
        *flag.int_target = std::stoll(value);
        break;
      case Kind::kDouble:
        *flag.double_target = std::stod(value);
        break;
      case Kind::kString:
        *flag.string_target = value;
        break;
    }
  } catch (const std::exception&) {
    std::fprintf(stderr, "bad value for --%s: '%s'\n%s", name.c_str(),
                 value.c_str(), usage().c_str());
    return false;
  }
  return true;
}

bool ArgParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%s", usage().c_str());
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument '%s'\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    arg = arg.substr(2);
    std::string name;
    std::string value;
    bool value_present = false;
    auto eq = arg.find('=');
    if (eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      value_present = true;
    } else {
      name = arg;
      auto it = flags_.find(name);
      // Non-boolean flags may take their value from the next argv entry,
      // unless that entry is a flag itself: then the value is missing.
      // (`--name=--x` still passes a value that begins with "--".)
      if (it != flags_.end() && it->second.kind != Kind::kBool &&
          i + 1 < argc && std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
        value_present = true;
      }
    }
    if (!apply(name, value, value_present)) {
      return false;
    }
  }
  return true;
}

std::string ArgParser::usage() const {
  std::ostringstream out;
  out << program_name_ << " — " << program_doc_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << "  " << flag.doc
        << " (default: " << flag.default_text << ")\n";
  }
  return out.str();
}

std::vector<std::int64_t> parse_x_list(const std::string& text,
                                       const std::string& flag) {
  std::vector<std::int64_t> values;
  std::size_t begin = 0;
  while (true) {
    const std::size_t end = text.find('x', begin);
    const std::string token = text.substr(begin, end - begin);
    std::size_t used = 0;
    std::int64_t value = 0;
    try {
      value = std::stoll(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    CUBIST_CHECK(!token.empty() && used == token.size(),
                 "bad token '" << token << "' in --" << flag << "='" << text
                               << "' (want e.g. 16x12x8)");
    values.push_back(value);
    if (end == std::string::npos) return values;
    begin = end + 1;
  }
}

std::vector<int> parse_x_int_list(const std::string& text,
                                  const std::string& flag) {
  std::vector<int> values;
  for (std::int64_t value : parse_x_list(text, flag)) {
    CUBIST_CHECK(value >= std::numeric_limits<int>::min() &&
                     value <= std::numeric_limits<int>::max(),
                 "value " << value << " in --" << flag << "='" << text
                          << "' does not fit in an int");
    values.push_back(static_cast<int>(value));
  }
  return values;
}

}  // namespace cubist
