#include "common.h"

#include <cmath>
#include <cstring>
#include <fstream>

namespace perfbench {

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

std::map<std::string, std::string> PayloadFields(const std::string& payload) {
  std::map<std::string, std::string> out;
  size_t i = 0;
  while (i < payload.size()) {
    while (i < payload.size() && payload[i] == ' ') ++i;
    size_t eq = payload.find('=', i);
    if (eq == std::string::npos) break;
    std::string key = payload.substr(i, eq - i);
    size_t j = eq + 1;
    std::string value;
    bool quoted = false;
    for (; j < payload.size(); ++j) {
      char c = payload[j];
      if (c == '\'') {
        quoted = !quoted;
        continue;
      }
      if (c == ' ' && !quoted) break;
      value += c;
    }
    out[key] = value;
    i = j;
  }
  return out;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void RunResult::Print() const {
  for (const std::string& e : errors) std::printf("check failed: %s\n", e.c_str());
  for (const Metric& m : info) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
