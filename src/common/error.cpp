#include "common/error.h"

#include <cstring>

namespace cubist::detail {
namespace {

std::string format(const char* kind, const char* expr, const char* file,
                   int line, const std::string& msg) {
  std::ostringstream out;
  out << kind << ": `" << expr << "` failed at " << file << ":" << line;
  if (!msg.empty()) {
    out << " — " << msg;
  }
  return out.str();
}

}  // namespace

void throw_invalid_argument(const char* expr, const char* file, int line,
                            const std::string& msg) {
  const std::string what = format("precondition", expr, file, line, msg);
  // The message ends what(); without one, the expression follows the
  // first backquote.
  if (msg.empty()) {
    throw InvalidArgument(what, what.find('`') + 1, std::strlen(expr));
  }
  throw InvalidArgument(what, what.size() - msg.size(), msg.size());
}

void throw_internal_error(const char* expr, const char* file, int line,
                          const std::string& msg) {
  throw InternalError(format("invariant", expr, file, line, msg));
}

}  // namespace cubist::detail
