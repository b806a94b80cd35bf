#include "spans.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace fleetbench {

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanLog::open(std::string name, std::string layer, long long count) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = open_.empty() ? -1 : open_.back();
  s.count = count;
  s.start_s = now();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanLog::close(int id) {
  if (open_.empty() || open_.back() != id)
    throw std::logic_error("SpanLog: spans must close innermost first");
  spans_[static_cast<std::size_t>(id)].end_s = now();
  open_.pop_back();
}

std::vector<double> SpanLog::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_s - spans_[i].start_s;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_s - s.start_s;
  return self;
}

std::map<std::string, double> SpanLog::self_time_by_layer() const {
  std::map<std::string, double> by_layer;
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    by_layer[spans_[i].layer] += self[i];
  return by_layer;
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.end_s - s.start_s);
  return out;
}

void SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("SpanLog: cannot write " + path);
  const std::vector<double> self = self_times();
  out << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"id\": " << i << ", \"name\": \""
        << aqua::obs::escape_json_string(s.name) << "\", \"layer\": \""
        << aqua::obs::escape_json_string(s.layer)
        << "\", \"start_s\": " << aqua::obs::json_double(s.start_s)
        << ", \"end_s\": " << aqua::obs::json_double(s.end_s)
        << ", \"self_s\": " << aqua::obs::json_double(self[i])
        << ", \"parent\": " << s.parent << ", \"count\": " << s.count << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("SpanLog: write failed " + path);
}

}  // namespace fleetbench
