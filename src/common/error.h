// Error handling primitives shared across cubist.
//
// We deliberately use exceptions (not abort) for precondition violations so
// library misuse is testable, and a CHECK macro family that is active in all
// build types: cube construction is memory-hungry, and silent index errors
// corrupt aggregates rather than crashing, so we always validate at module
// boundaries. Inner-loop code uses CUBIST_DCHECK, compiled out in release.
#pragma once

#include <cstddef>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cubist {

/// Thrown on violated preconditions (bad arguments, inconsistent state).
/// what() names the failed check, its file and line; message() is the
/// part meant for the person who passed the bad input.
class InvalidArgument : public std::invalid_argument {
 public:
  /// message() is all of `what`.
  explicit InvalidArgument(const std::string& what)
      : std::invalid_argument(what) {}
  /// message() is `what`'s `size` characters from `at`.
  InvalidArgument(const std::string& what, std::size_t at, std::size_t size)
      : std::invalid_argument(what), at_(at), size_(size) {}

  /// A CUBIST_CHECK's message, or its expression when it has none.
  std::string_view message() const noexcept {
    return std::string_view(what()).substr(at_, size_);
  }

 private:
  std::size_t at_ = 0;
  std::size_t size_ = std::string_view::npos;
};

/// Thrown when an internal invariant fails (a bug in cubist itself).
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace detail {

[[noreturn]] void throw_invalid_argument(const char* expr, const char* file,
                                         int line, const std::string& msg);
[[noreturn]] void throw_internal_error(const char* expr, const char* file,
                                       int line, const std::string& msg);

// Builds the optional message from stream-style arguments.
class MessageBuilder {
 public:
  template <typename T>
  MessageBuilder& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }
  std::string str() const { return stream_.str(); }

 private:
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace cubist

/// Validates a caller-supplied precondition; throws cubist::InvalidArgument.
#define CUBIST_CHECK(expr, ...)                                         \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::cubist::detail::throw_invalid_argument(                         \
          #expr, __FILE__, __LINE__,                                    \
          (::cubist::detail::MessageBuilder{} << "" __VA_ARGS__).str()); \
    }                                                                   \
  } while (false)

/// Validates an internal invariant; throws cubist::InternalError.
#define CUBIST_ASSERT(expr, ...)                                        \
  do {                                                                  \
    if (!(expr)) {                                                      \
      ::cubist::detail::throw_internal_error(                           \
          #expr, __FILE__, __LINE__,                                    \
          (::cubist::detail::MessageBuilder{} << "" __VA_ARGS__).str()); \
    }                                                                   \
  } while (false)

// Debug-only invariant check for hot loops.
#ifdef NDEBUG
#define CUBIST_DCHECK(expr, ...) \
  do {                           \
  } while (false)
#else
#define CUBIST_DCHECK(expr, ...) CUBIST_ASSERT(expr, __VA_ARGS__)
#endif
