#include "trace.hpp"

#include <fstream>
#include <iomanip>
#include <stdexcept>
#include <utility>

namespace e2e {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Tracer::Tracer() : t0_(Clock::now()) {}

int Tracer::open(std::string_view name, int op) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::string(name), seconds_since(t0_), 0.0,
                        open_.empty() ? -1 : open_.back(), op});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: spans closed out of order");
  }
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end_s = seconds_since(t0_);
}

std::vector<double> Tracer::durations(std::string_view name, int op) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.op == op && s.name == name) out.push_back(s.duration_s());
  }
  return out;
}

double Tracer::total(std::string_view name, int op) const {
  double sum = 0.0;
  for (const double d : durations(name, op)) sum += d;
  return sum;
}

std::vector<double> Tracer::self_times() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_s();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.duration_s();
  }
  return self;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write span file " + path);
  const std::vector<double> self = self_times();
  os << std::setprecision(17) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "  {\"id\": " << i << ", \"name\": \"" << s.name
       << "\", \"op\": " << s.op << ", \"parent\": " << s.parent
       << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << ", \"self_s\": " << self[i] << "}"
       << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  os << "]}\n";
}

void ChannelStats::reset() {
  samples = 0;
  batch_calls = 0;
  batch_width = 0;
  timed_samples = 0;
  timed_ns = 0;
}

CountingChannel::CountingChannel(
    std::unique_ptr<hi::channel::ChannelModel> inner, ChannelStats& stats)
    : inner_(std::move(inner)), stats_(stats) {}

CountingChannel::~CountingChannel() {
  stats_.samples += samples_;
  stats_.batch_calls += batch_calls_;
  stats_.batch_width += batch_width_;
  stats_.timed_samples += timed_samples_;
  stats_.timed_ns += timed_ns_;
}

double CountingChannel::path_loss_db(int i, int j, double t) {
  ++samples_;
  if (++calls_ % kTimeEvery != 0) return inner_->path_loss_db(i, j, t);
  const Clock::time_point t0 = Clock::now();
  const double db = inner_->path_loss_db(i, j, t);
  timed_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  ++timed_samples_;
  return db;
}

void CountingChannel::path_loss_batch_db(int i, const int* js, std::size_t n,
                                         double t, double* out) {
  samples_ += n;
  ++batch_calls_;
  batch_width_ += n;
  if (++calls_ % kTimeEvery != 0) {
    inner_->path_loss_batch_db(i, js, n, t, out);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  inner_->path_loss_batch_db(i, js, n, t, out);
  timed_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  timed_samples_ += n;
}

double CountingChannel::mean_path_loss_db(int i, int j) const {
  return inner_->mean_path_loss_db(i, j);
}

hi::net::ChannelFactory counting_factory(hi::net::ChannelFactory inner,
                                         ChannelStats& stats) {
  return [inner = std::move(inner), &stats](std::uint64_t seed)
             -> std::unique_ptr<hi::channel::ChannelModel> {
    return std::make_unique<CountingChannel>(inner(seed), stats);
  };
}

}  // namespace e2e
