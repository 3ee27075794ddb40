#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <unistd.h>

namespace vcgtbench {

void Result::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
}

void bind_to_cpus(int first, int count) {
  const int ncpu = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < std::min(count, ncpu); ++i) CPU_SET((first + i) % ncpu, &set);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void bind_thread_id(int tid, int cpu) {
  const int ncpu = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu % ncpu, &set);
  (void)sched_setaffinity(tid, sizeof(set), &set);
}

IdleSpinners::IdleSpinners(int first, int count) {
  for (int i = 0; i < count; ++i) {
    threads_.emplace_back([this, cpu = first + i] {
      bind_to_cpus(cpu);
      const sched_param param{};
      (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream ss(line.substr(6));
      double kb = 0.0;
      ss >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  const long hz = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && hz > 0 ? v[7] / static_cast<double>(hz) : 0.0;
}

namespace {

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

std::string machine_context_json() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"caches\": [";
  bool first = true;
  for (int i = 0; i < 8; ++i) {
    const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    const std::string size = read_first_line(dir + "/size");
    if (size.empty()) continue;
    os << (first ? "" : ", ") << "{\"level\": " << json_string(read_first_line(dir + "/level"))
       << ", \"type\": " << json_string(read_first_line(dir + "/type"))
       << ", \"size\": " << json_string(size) << "}";
    first = false;
  }
  os << "]}";
  return os.str();
}

void print_result(const Result& r, bool trace) {
  const auto& ms = trace ? r.per_layer : r.end_to_end;
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << std::max(r.attempted, 1L) << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << json_string(ms[i].name) << ": {\"value\": "
       << json_number(ms[i].value) << ", \"unit\": " << json_string(ms[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace vcgtbench
