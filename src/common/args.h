// Minimal command-line flag parser for the examples and bench harnesses.
//
// Supports `--name=value`, `--name value` and boolean `--name` forms plus
// automatic --help generation. Intentionally tiny: the binaries in
// examples/ and bench/ have a handful of numeric knobs each. The checked
// `x`-list parsers read shape-valued flags such as --sizes=16x12x8.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace cubist {

class ArgParser {
 public:
  /// `program_doc` is printed at the top of --help output.
  ArgParser(std::string program_name, std::string program_doc);

  // Flag registration. `doc` feeds --help. Returned values are finalized by
  // parse(); read them only afterwards.
  std::int64_t* add_int(const std::string& name, std::int64_t default_value,
                        const std::string& doc);
  double* add_double(const std::string& name, double default_value,
                     const std::string& doc);
  bool* add_bool(const std::string& name, bool default_value,
                 const std::string& doc);
  std::string* add_string(const std::string& name, std::string default_value,
                          const std::string& doc);

  /// Parses argv. Returns false (after printing usage) if --help was given
  /// or an unknown/invalid flag was seen; callers should then exit.
  bool parse(int argc, char** argv);

  /// Renders the --help text.
  std::string usage() const;

 private:
  enum class Kind { kInt, kDouble, kBool, kString };
  struct Flag {
    Kind kind;
    std::string doc;
    std::string default_text;
    std::int64_t* int_target = nullptr;
    double* double_target = nullptr;
    bool* bool_target = nullptr;
    std::string* string_target = nullptr;
  };

  bool apply(const std::string& name, const std::string& value,
             bool value_present);

  std::string program_name_;
  std::string program_doc_;
  std::map<std::string, Flag> flags_;
  // Deques-of-values keep pointers stable across registration.
  std::vector<std::unique_ptr<std::int64_t>> int_storage_;
  std::vector<std::unique_ptr<double>> double_storage_;
  std::vector<std::unique_ptr<bool>> bool_storage_;
  std::vector<std::unique_ptr<std::string>> string_storage_;
};

/// Parses an `x`-separated integer list such as "16x12x8", the value of
/// --`flag`. Raises InvalidArgument on an empty or non-numeric token
/// (so on an empty list too) and on a value outside std::int64_t.
std::vector<std::int64_t> parse_x_list(const std::string& text,
                                       const std::string& flag);

/// parse_x_list for values that must fit in an int (grid exponents).
std::vector<int> parse_x_int_list(const std::string& text,
                                  const std::string& flag);

}  // namespace cubist
