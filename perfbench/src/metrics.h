// Named metric values with units, printed as the JSON "metrics" object.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }

  /// {"name": {"value": v, "unit": "u"}, ...}. Non-finite values (a point
  /// where nothing was answered) print as 1e9 so the output stays JSON.
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      char num[64];
      std::snprintf(num, sizeof num, "%.17g",
                    std::isfinite(e.value) ? e.value : 1e9);
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
