#include "dcc/scenario/param_map.h"

#include <algorithm>

#include "dcc/common/parse.h"
#include "dcc/common/types.h"

namespace dcc::scenario {

ParamMap ParamMap::Parse(const std::string& text, const std::string& context) {
  ParamMap out;
  if (text.empty()) return out;
  std::size_t pos = 0;
  for (;;) {
    std::size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    const std::string item = text.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    // An empty item also rejects leading, doubled and trailing commas.
    if (item.empty() || eq == std::string::npos || eq == 0) {
      throw InvalidArgument(context + ": malformed parameter '" + item +
                            "' (expected key=value)");
    }
    out.Set(item.substr(0, eq), item.substr(eq + 1));
    if (comma == text.size()) break;
    pos = comma + 1;
  }
  return out;
}

void ParamMap::Set(const std::string& key, const std::string& value) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      entries_[i].second = value;
      return;
    }
  }
  entries_.emplace_back(key, value);
  consumed_.push_back(0);
}

const std::string* ParamMap::Find(const std::string& key) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].first == key) {
      consumed_[i] = 1;
      return &entries_[i].second;
    }
  }
  return nullptr;
}

bool ParamMap::Has(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return true;
  }
  return false;
}

std::int64_t ParamMap::GetInt(const std::string& key,
                              std::int64_t fallback) const {
  const std::string* v = Find(key);
  if (!v) return fallback;
  return ParseInt64(*v, "parameter '" + key + "'");
}

int ParamMap::GetInt32(const std::string& key, int fallback) const {
  const std::string* v = Find(key);
  if (!v) return fallback;
  return ParseInt(*v, "parameter '" + key + "'");
}

double ParamMap::GetDouble(const std::string& key, double fallback) const {
  const std::string* v = Find(key);
  if (!v) return fallback;
  return ParseDouble(*v, "parameter '" + key + "'");
}

std::string ParamMap::GetString(const std::string& key,
                                const std::string& fallback) const {
  const std::string* v = Find(key);
  return v ? *v : fallback;
}

void ParamMap::CheckAllConsumed(const std::string& context) const {
  std::string leftover;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (consumed_[i]) continue;
    if (!leftover.empty()) leftover += ", ";
    leftover += entries_[i].first;
  }
  if (!leftover.empty()) {
    throw InvalidArgument(context + ": unknown parameter(s): " + leftover);
  }
}

ParamMap ParamMap::Sorted() const {
  ParamMap out;
  out.entries_ = entries_;
  std::sort(out.entries_.begin(), out.entries_.end());
  out.consumed_.assign(out.entries_.size(), 0);
  return out;
}

std::string ParamMap::ToString() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    if (!out.empty()) out += ',';
    out += k + '=' + v;
  }
  return out;
}

}  // namespace dcc::scenario
