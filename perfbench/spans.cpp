#include "spans.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name) : rec_(rec) {
  if (rec_ == nullptr) return;
  index_ = static_cast<int>(rec_->spans_.size());
  const int parent = rec_->open_.empty() ? -1 : rec_->open_.back();
  rec_->spans_.push_back({std::move(name), rec_->now(), 0.0, parent,
                          rec_->run_});
  rec_->open_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  rec_->spans_[static_cast<std::size_t>(index_)].end = rec_->now();
  rec_->open_.pop_back();
}

std::vector<double> SpanRecorder::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  // children nest inside their parent on this single thread, so covered
  // time is the plain sum of the children's durations
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end - s.start;
  return self;
}

std::vector<SpanRecorder::Totals> SpanRecorder::totals() const {
  const std::vector<double> self = self_times();
  std::vector<Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(), [&](const Totals& t) {
      return t.name == spans_[i].name;
    });
    if (it == out.end()) {
      out.push_back({spans_[i].name, 0, 0.0, 0.0});
      it = out.end() - 1;
    }
    ++it->count;
    it->total += spans_[i].end - spans_[i].start;
    it->self += self[i];
  }
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  forksim::obs::EventTracer tracer(nullptr, spans_.size() + 1);
  const std::vector<double> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    tracer.complete(s.start, s.end - s.start, "perfbench", s.name, s.run,
                    {{"id", static_cast<std::int64_t>(i)},
                     {"parent", s.parent},
                     {"self_us", static_cast<std::int64_t>(self[i] * 1e6)}});
  }
  return tracer.write_chrome_json_file(path);
}

}  // namespace perfbench
