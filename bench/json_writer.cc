// Bench provenance and quantile helpers (bench_json.h). The JsonWriter
// implementation lives in util/json.cc since its promotion into the library.

#include "bench_json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace hops {

std::string BenchTimestampUtc() {
  std::time_t now = std::time(nullptr);
  std::tm utc{};
#if defined(_WIN32)
  gmtime_s(&utc, &now);
#else
  gmtime_r(&now, &utc);
#endif
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &utc);
  return buf;
}

std::string BenchGitRev() {
  if (const char* env = std::getenv("HOPS_GIT_REV");
      env != nullptr && env[0] != '\0') {
    return env;
  }
#if !defined(_WIN32)
  if (FILE* pipe = popen("git rev-parse --short=12 HEAD 2>/dev/null", "r")) {
    char buf[64] = {0};
    const size_t n = fread(buf, 1, sizeof(buf) - 1, pipe);
    const int status = pclose(pipe);
    if (status == 0 && n > 0) {
      std::string rev(buf, n);
      while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r')) {
        rev.pop_back();
      }
      if (!rev.empty()) return rev;
    }
  }
#endif
  return "unknown";
}

void WriteBenchProvenance(JsonWriter* writer) {
  writer->Key("timestamp_utc");
  writer->String(BenchTimestampUtc());
  writer->Key("git_rev");
  writer->String(BenchGitRev());
}

double NearestRankQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace hops
