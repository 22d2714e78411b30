#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/cache.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

std::string trim(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == ' ')) s.pop_back();
  return s;
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return trim(line.substr(colon + 2));
    }
  }
  return "unknown";
}

/// HEAD's commit when the checkout is a git work tree, else "unknown".
std::string commit() {
  namespace fs = std::filesystem;
  if (!fs::is_directory(".git")) return "unknown";
  const std::string head = trim(read_file(".git/HEAD"));
  if (head.rfind("ref: ", 0) != 0) return head;
  const std::string ref = head.substr(5);
  if (fs::exists(".git/" + ref)) return trim(read_file(".git/" + ref));
  std::istringstream packed(read_file(".git/packed-refs"));
  std::string line;
  while (std::getline(packed, line)) {
    if (line.size() > 41 && line.compare(41, std::string::npos, ref) == 0) {
      return line.substr(0, 40);
    }
  }
  return "unknown";
}

/// FNV-1a over the sorted paths and contents of src/ and tools/.
std::string source_digest() {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const char* dir : {"src", "tools"}) {
    if (!fs::is_directory(dir)) continue;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file()) files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::string all;
  for (const auto& f : files) all += f.string() + '\0' + read_file(f) + '\0';
  return ssm::service::hex16(ssm::service::fnv1a64(all));
}

}  // namespace

std::map<std::string, std::string> host_stamp() {
  return {
      {"cores", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu_model()},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"commit", commit()},
      {"source_digest", source_digest()},
  };
}

}  // namespace perfbench
