// Span recorder and its Chrome trace-event writer (see harness.h).

#include <cstdio>
#include <functional>
#include <thread>

#include "harness.h"

namespace perfbench {

namespace {
// Open spans of the calling thread, innermost last.
thread_local std::vector<int> t_open;

int thread_tag() {
  return static_cast<int>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}
}  // namespace

int Tracer::begin(const std::string& name, int job) {
  Span s;
  s.name = name;
  s.t0 = now();
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.job = job;
  s.tid = thread_tag();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lk(m_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const double t = now();
  {
    const std::lock_guard<std::mutex> lk(m_);
    spans_[static_cast<size_t>(id)].t1 = t;
  }
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
}

std::map<std::string, double> Tracer::self_seconds() const {
  const std::lock_guard<std::mutex> lk(m_);
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const auto& s : spans_)
    if (s.parent >= 0)
      kids[static_cast<size_t>(s.parent)].push_back({s.t0, s.t1});
  std::map<std::string, double> out;
  const double t_now = now();
  for (size_t i = 0; i < spans_.size(); ++i) {
    Span s = spans_[i];
    if (s.t1 < s.t0) s.t1 = t_now;  // still open: count up to now
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0, cur0 = 0, cur1 = -1;
    for (const auto& [a0, a1] : iv) {
      const double b0 = std::max(a0, s.t0), b1 = std::min(a1, s.t1);
      if (b1 <= b0) continue;
      if (b0 > cur1) {
        if (cur1 > cur0) covered += cur1 - cur0;
        cur0 = b0;
        cur1 = b1;
      } else {
        cur1 = std::max(cur1, b1);
      }
    }
    if (cur1 > cur0) covered += cur1 - cur0;
    out[s.name] += (s.t1 - s.t0) - covered;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::lock_guard<std::mutex> lk(m_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"id\": %zu, \"parent\": %d, \"job\": %d}}",
                 i ? ",\n" : "", json_escape(s.name).c_str(), s.tid,
                 s.t0 * 1e6, (s.t1 - s.t0) * 1e6, i, s.parent, s.job);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
