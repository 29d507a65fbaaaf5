// Machine-readable benchmark output: a flat JSON document mapping entry
// names to numeric metrics, written next to the human-readable tables so
// CI and plotting scripts can track throughput without parsing stdout.
#pragma once

#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace hp::bench {

/// Accumulates named metric groups and writes them as one JSON object:
/// { "schema": ..., "entries": { name: { metric: value, ... }, ... } }
class JsonReport {
 public:
  explicit JsonReport(std::string schema) : schema_(std::move(schema)) {}

  void add(const std::string& name,
           std::vector<std::pair<std::string, double>> metrics) {
    entries_.emplace_back(name, std::move(metrics));
  }

  /// Throws hp::CheckError when `path` cannot be opened or the document
  /// does not reach it whole (a full disk, a short write).
  void write(const std::string& path) const {
    std::ofstream out(path);
    HP_CHECK(out.is_open(), "cannot open " + path + " for writing");
    out << std::setprecision(12);
    out << "{\n  \"schema\": \"" << schema_ << "\",\n  \"entries\": {\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& [name, metrics] = entries_[i];
      out << "    \"" << name << "\": {";
      for (std::size_t j = 0; j < metrics.size(); ++j) {
        out << "\"" << metrics[j].first << "\": " << metrics[j].second;
        if (j + 1 < metrics.size()) out << ", ";
      }
      out << "}" << (i + 1 < entries_.size() ? "," : "") << "\n";
    }
    out << "  }\n}\n";
    out.flush();
    HP_CHECK(out.good(), "failed writing " + path);
    std::cout << "wrote " << path << " (" << entries_.size() << " entries)\n";
  }

 private:
  std::string schema_;
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      entries_;
};

}  // namespace hp::bench
