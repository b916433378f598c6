#include "dcc/common/parse.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "dcc/common/types.h"

namespace dcc {

namespace {

[[noreturn]] void Fail(const std::string& what, const std::string& text,
                       const char* kind) {
  throw InvalidArgument(what + ": '" + text + "' is not " + kind);
}

}  // namespace

std::int64_t ParseInt64(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end == text.c_str() || *end != '\0' || errno == ERANGE) {
    Fail(what, text, "an integer");
  }
  return v;
}

int ParseInt(const std::string& text, const std::string& what) {
  const std::int64_t v = ParseInt64(text, what);
  if (v < std::numeric_limits<int>::min() ||
      v > std::numeric_limits<int>::max()) {
    Fail(what, text, "an integer in int range");
  }
  return static_cast<int>(v);
}

std::uint64_t ParseUint64(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  // strtoull wraps negative input instead of rejecting it.
  if (text.empty() || text.find('-') != std::string::npos ||
      end == text.c_str() || *end != '\0' || errno == ERANGE) {
    Fail(what, text, "an unsigned integer");
  }
  return v;
}

double ParseDouble(const std::string& text, const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end == text.c_str() || *end != '\0') {
    Fail(what, text, "a number");
  }
  // strtod accepts "inf", "infinity" and "nan"; no parameter means either.
  if (!std::isfinite(v)) Fail(what, text, "a finite number");
  // ERANGE also covers harmless underflow-to-zero; only magnitude overflow
  // is a lie about the value.
  if (errno == ERANGE && std::abs(v) == HUGE_VAL) {
    Fail(what, text, "a representable number");
  }
  return v;
}

}  // namespace dcc
