// Strict whole-string numeric parsing, shared by every layer that turns
// user text into numbers (scenario specs, ParamMap getters, engine env
// knobs). Rejects empty strings, trailing characters, sign mismatches,
// overflow and non-finite doubles (inf, nan) with InvalidArgument — a typo
// must fail loudly, never silently become a different value.
#pragma once

#include <cstdint>
#include <string>

namespace dcc {

// `what` names the value in the error message, e.g. "--seeds" or
// "parameter 'n'".
std::int64_t ParseInt64(const std::string& text, const std::string& what);
// ParseInt64 narrowed to int: a value outside int's range throws instead
// of wrapping.
int ParseInt(const std::string& text, const std::string& what);
std::uint64_t ParseUint64(const std::string& text, const std::string& what);
double ParseDouble(const std::string& text, const std::string& what);

}  // namespace dcc
