// String-keyed parameter bags for scenario specs ("n=4096,side=20").
//
// Values stay in their textual form so a parsed spec serializes back
// byte-identically; typed getters convert on read. Every read marks its key
// consumed, and `CheckAllConsumed` turns leftover keys into errors — a
// misspelled parameter fails the run instead of silently using a default.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dcc::scenario {

class ParamMap {
 public:
  ParamMap() = default;

  // Parses "k=v,k=v,..."; the empty string yields an empty map. `context`
  // names the owner (e.g. "topology 'uniform'") in error messages.
  static ParamMap Parse(const std::string& text, const std::string& context);

  // Inserts or overwrites.
  void Set(const std::string& key, const std::string& value);
  bool Has(const std::string& key) const;

  // Typed getters: absent keys return `fallback`; malformed values throw
  // InvalidArgument. Reads mark the key consumed.
  std::int64_t GetInt(const std::string& key, std::int64_t fallback) const;
  // GetInt for int-typed parameters: a value outside int's range throws
  // (naming the key) instead of wrapping.
  int GetInt32(const std::string& key, int fallback) const;
  double GetDouble(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key,
                        const std::string& fallback) const;

  // Throws InvalidArgument listing every key no getter ever read.
  void CheckAllConsumed(const std::string& context) const;

  // Canonical "k=v,k=v" in insertion order; "" when empty.
  std::string ToString() const;

  // Copy with entries sorted by key — the order-invariant view behind
  // ScenarioSpec::CanonicalKey. Consumption marks are not carried over.
  ParamMap Sorted() const;

  bool empty() const { return entries_.empty(); }
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  friend bool operator==(const ParamMap& a, const ParamMap& b) {
    return a.entries_ == b.entries_;
  }

 private:
  const std::string* Find(const std::string& key) const;

  std::vector<std::pair<std::string, std::string>> entries_;
  // Consumption tracking is observational (getters are logically const).
  mutable std::vector<char> consumed_;
};

}  // namespace dcc::scenario
