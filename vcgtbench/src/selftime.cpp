#include "selftime.hpp"

#include <algorithm>

namespace vcgtbench {

namespace {

bool starts_with(const std::string& s, const char* p) { return s.rfind(p, 0) == 0; }

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

std::string layer_of(const std::string& name) {
  if (starts_with(name, "mpi:")) return "minimpi";
  if (starts_with(name, "hydra:")) return "hydra";
  if (starts_with(name, "hs:") || starts_with(name, "cu:") || starts_with(name, "coupler:")) {
    return "jm76";
  }
  if (starts_with(name, "halo:") || starts_with(name, "chain:")) return "op2";
  if (name.find("ksolve") != std::string::npos) return "krylov";
  if (name.find(':') != std::string::npos) return "op2";  // "<row>:<loop>"
  return "other";
}

double SelfTimes::suffix_s(const std::string& suffix) const {
  double s = 0.0;
  for (const auto& [name, v] : name_s) {
    if (ends_with(name, suffix)) s += v;
  }
  return s;
}

std::uint64_t SelfTimes::suffix_count(const std::string& suffix) const {
  std::uint64_t n = 0;
  for (const auto& [name, d] : name_dur_s) {
    if (ends_with(name, suffix)) n += d.size();
  }
  return n;
}

double SelfTimes::prefix_s(const std::string& prefix) const {
  double s = 0.0;
  for (const auto& [name, v] : name_s) {
    if (starts_with(name, prefix.c_str())) s += v;
  }
  return s;
}

std::vector<double> SelfTimes::durations(const std::string& name) const {
  const auto it = name_dur_s.find(name);
  return it == name_dur_s.end() ? std::vector<double>{} : it->second;
}

double SelfTimes::unattributed_frac() const {
  return window_s > 0.0 ? 1.0 - attributed_s / window_s : 0.0;
}

SelfTimes self_times(const std::vector<vcgt::trace::Event>& events,
                     const std::vector<int>& tracks, const std::vector<Window>& windows) {
  SelfTimes out;
  for (const auto& w : windows) {
    out.window_s +=
        static_cast<double>(w.t1_ns - w.t0_ns) * 1e-9 * static_cast<double>(tracks.size());
  }
  const auto inside = [&](const vcgt::trace::Event& e) {
    return std::any_of(windows.begin(), windows.end(), [&](const Window& w) {
      return e.ts_ns >= w.t0_ns && e.ts_ns + e.dur_ns <= w.t1_ns;
    });
  };
  for (const int track : tracks) {
    std::vector<const vcgt::trace::Event*> spans;
    for (const auto& e : events) {
      if (e.phase == 'X' && e.track == track && inside(e)) spans.push_back(&e);
    }
    // Parents start no later than their children; on equal starts the
    // shallower span is the parent.
    std::stable_sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->depth < b->depth;
    });
    std::vector<std::int64_t> self(spans.size());
    std::vector<int> open;  // latest span index per depth
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& e = *spans[i];
      self[i] = e.dur_ns;
      const auto d = static_cast<std::size_t>(std::max(e.depth, 0));
      if (d > 0 && d - 1 < open.size() && open[d - 1] >= 0) {
        const auto& p = *spans[static_cast<std::size_t>(open[d - 1])];
        if (e.ts_ns <= p.ts_ns + p.dur_ns) {
          self[static_cast<std::size_t>(open[d - 1])] -= e.dur_ns;
        }
      }
      if (open.size() <= d) open.resize(d + 1, -1);
      open[d] = static_cast<int>(i);
      open.resize(d + 1);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& e = *spans[i];
      // Children of a span on several pool threads could exceed it; never
      // let a span give back more than its own duration.
      const double s = static_cast<double>(std::max<std::int64_t>(self[i], 0)) * 1e-9;
      out.layer_s[layer_of(e.name)] += s;
      out.name_s[e.name] += s;
      out.name_dur_s[e.name].push_back(static_cast<double>(e.dur_ns) * 1e-9);
      out.attributed_s += s;
    }
  }
  return out;
}

}  // namespace vcgtbench
