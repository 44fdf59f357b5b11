#include "trace.hpp"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kOp: return "op";
    case Layer::kKernel: return "os.kernel";
    case Layer::kHypervisor: return "hv.hypervisor";
    case Layer::kForward: return "core.forward";
    case Layer::kHrkdBusy: return "auditors.hrkd.busy";
    case Layer::kHrkdTimer: return "auditors.hrkd.timer";
    case Layer::kNinjaBusy: return "auditors.ht_ninja.busy";
    case Layer::kNinjaTimer: return "auditors.ht_ninja.timer";
    case Layer::kGoshdBusy: return "auditors.goshd.busy";
    case Layer::kGoshdTimer: return "auditors.goshd.timer";
    case Layer::kJournalAppend: return "journal.append";
    case Layer::kJournalRead: return "journal.read";
    case Layer::kTelemetryCapture: return "telemetry.capture";
    case Layer::kTelemetrySlo: return "telemetry.slo";
    case Layer::kRecoveryTick: return "recovery.tick";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::end(Layer l) {
  if (!enabled_ || suspended_) return;
  if (frames_.empty() || frames_.back().layer != l) {
    throw std::logic_error(std::string("perfbench: span nesting broken at ") +
                           layer_name(l));
  }
  const Frame f = frames_.back();
  frames_.pop_back();
  const i64 end = now_ns();
  const i64 dur = end - f.start;
  Agg& a = agg_[static_cast<std::size_t>(l)];
  a.total_ns += dur;
  a.self_ns += dur - f.child_ns;
  if (!frames_.empty()) frames_.back().child_ns += dur;
  if (f.span != 0) spans_[f.span - 1].end = end;
}

void Tracer::start_timed() {
  agg_ = {};
  spans_.clear();
  spans_.reserve(max_spans_);
  dropped_ = 0;
  keep_ = true;
}

bool Tracer::write_csv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const i64 t0 = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(f, "op,id,parent,layer,start_ns,end_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%u,%zu,%u,%s,%lld,%lld\n", s.op, i + 1, s.parent,
                 layer_name(s.layer), static_cast<long long>(s.start - t0),
                 static_cast<long long>(s.end - t0));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
