// Outside-in tracing for the host-cost benchmark.
//
// Every layer is timed from the benchmark's own files, by wrapping seams
// the simulator already exposes: the GuestOs the machine steps, the
// ExitSink the exit engine dispatches to, a pair of ExitObservers that
// bracket HyperTap's forwarder, an Auditor decorator around each monitor
// and a JournalStore decorator around each in-memory journal. The
// wrappers charge no simulated time, so a traced run simulates exactly
// what an untraced one does (the witness checks it).
//
// Spans nest strictly (the benchmark is single-threaded), so the tracer
// keeps a stack: when a span ends, its duration is added to its layer's
// total and to its parent's child time, and self time = duration minus
// child time. Self times therefore partition each op: the per-layer self
// times plus the op's own self time (hv.machine.self_us) add up to the op
// total by construction.
//
// Spans of the timed phase are also kept in memory (bounded) with name,
// start, end, parent and op id, and written out as CSV when the workload
// ends.
#pragma once

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "core/auditor.hpp"
#include "hav/exit_engine.hpp"
#include "hv/host_services.hpp"
#include "hv/hypervisor.hpp"
#include "journal/journal.hpp"

namespace perfbench {

using namespace hvsim;

inline i64 now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : u8 {
  kOp,
  kKernel,
  kHypervisor,
  kForward,
  kHrkdBusy,
  kHrkdTimer,
  kNinjaBusy,
  kNinjaTimer,
  kGoshdBusy,
  kGoshdTimer,
  kJournalAppend,
  kJournalRead,
  kTelemetryCapture,
  kTelemetrySlo,
  kRecoveryTick,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
const char* layer_name(Layer l);

class Tracer {
 public:
  struct Agg {
    i64 total_ns = 0;
    i64 self_ns = 0;
  };
  struct Span {
    u32 op = 0;
    u32 parent = 0;  ///< 1-based index of the parent span, 0 = none kept
    i64 start = 0;
    i64 end = 0;
    Layer layer = Layer::kOp;
  };

  Tracer(bool enabled, std::size_t max_spans)
      : enabled_(enabled), max_spans_(max_spans) {}

  bool enabled() const { return enabled_; }

  /// Suspend recording (untimed work between ops); spans must be closed.
  void suspend(bool on) { suspended_ = on; }

  void begin(Layer l) {
    if (!enabled_ || suspended_) return;
    Frame f{l, now_ns(), 0, 0};
    if (keep_ && spans_.size() < max_spans_) {
      spans_.push_back(
          Span{op_, frames_.empty() ? 0 : frames_.back().span, f.start, 0, l});
      f.span = static_cast<u32>(spans_.size());
    } else if (keep_) {
      ++dropped_;
    }
    frames_.push_back(f);
  }

  /// Close the innermost span, which must be of layer `l`.
  void end(Layer l);

  /// Op boundary: every span begun until the next call carries this id.
  void set_op(u32 op) { op_ = op; }

  /// Start of the timed phase: zero the aggregates and start keeping
  /// spans (the warm-up's are not kept).
  void start_timed();

  const Agg& agg(Layer l) const { return agg_[static_cast<std::size_t>(l)]; }
  u64 spans_kept() const { return spans_.size(); }
  u64 spans_dropped() const { return dropped_; }
  std::size_t depth() const { return frames_.size(); }

  /// Kept spans as CSV (op,id,parent,layer,start_ns,end_ns; times
  /// relative to the first kept span).
  bool write_csv(const std::string& path) const;

 private:
  struct Frame {
    Layer layer;
    i64 start;
    i64 child_ns;
    u32 span;
  };

  bool enabled_;
  bool suspended_ = false;
  std::size_t max_spans_;
  bool keep_ = false;
  u32 op_ = 0;
  std::vector<Frame> frames_;
  std::array<Agg, kLayers> agg_{};
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

class Scope {
 public:
  Scope(Tracer& t, Layer l) : t_(t), l_(l) { t_.begin(l_); }
  ~Scope() { t_.end(l_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  Layer l_;
};

// ---------------------------------------------------------------------------
// Forwarding wrappers
// ---------------------------------------------------------------------------

/// Installed with Machine::set_guest: times step_vcpu, timer_tick and
/// handle_irq (exits nested inside them are child spans).
class GuestOsTap final : public hv::GuestOs {
 public:
  GuestOsTap(hv::GuestOs& inner, Tracer& t) : inner_(inner), t_(t) {}
  void step_vcpu(int cpu, SimTime budget) override {
    ++calls_;
    Scope s(t_, Layer::kKernel);
    inner_.step_vcpu(cpu, budget);
  }
  void timer_tick(int cpu) override {
    ++calls_;
    Scope s(t_, Layer::kKernel);
    inner_.timer_tick(cpu);
  }
  void handle_irq(int cpu, u8 vector) override {
    ++calls_;
    Scope s(t_, Layer::kKernel);
    inner_.handle_irq(cpu, vector);
  }
  bool cpu_idle(int cpu) const override { return inner_.cpu_idle(cpu); }
  u64 calls() const { return calls_; }

 private:
  hv::GuestOs& inner_;
  Tracer& t_;
  u64 calls_ = 0;
};

/// Set with ExitEngine::set_sink in front of the Hypervisor.
class ExitSinkTap final : public hav::ExitSink {
 public:
  ExitSinkTap(hav::ExitSink& inner, Tracer& t) : inner_(inner), t_(t) {}
  hav::ExitDisposition on_exit(arch::Vcpu& vcpu,
                               const hav::Exit& exit) override {
    Scope s(t_, Layer::kHypervisor);
    return inner_.on_exit(vcpu, exit);
  }

 private:
  hav::ExitSink& inner_;
  Tracer& t_;
};

/// Two observers bracketing HyperTap's forwarder: `open` must be
/// registered with the hypervisor before HyperTap is constructed, `close`
/// after it.
class ForwardBracket {
 public:
  explicit ForwardBracket(Tracer& t) : open_(t), close_(t) {}
  hv::ExitObserver& open() { return open_; }
  hv::ExitObserver& close() { return close_; }

 private:
  struct Open final : hv::ExitObserver {
    explicit Open(Tracer& t) : t(t) {}
    void on_vm_exit(arch::Vcpu&, const hav::Exit&) override {
      t.begin(Layer::kForward);
    }
    Tracer& t;
  };
  struct Close final : hv::ExitObserver {
    explicit Close(Tracer& t) : t(t) {}
    void on_vm_exit(arch::Vcpu&, const hav::Exit&) override {
      t.end(Layer::kForward);
    }
    Tracer& t;
  };
  Open open_;
  Close close_;
};

/// Syscall events per tagged guest task. The benchmark's own guest
/// programs pass `kSyscallTag | pid` as the third syscall argument, so a
/// delivered event can be attributed without any guest read.
inline constexpr u32 kSyscallTag = 0xB5000000u;
inline constexpr u32 kSyscallTagMask = 0xFF000000u;

class SyscallTally {
 public:
  void count(u32 arg) {
    if ((arg & kSyscallTagMask) != kSyscallTag) return;
    const u32 pid = arg & ~kSyscallTagMask;
    if (pid >= by_pid_.size()) by_pid_.resize(pid + 1, 0);
    ++by_pid_[pid];
  }
  u64 of(u32 pid) const { return pid < by_pid_.size() ? by_pid_[pid] : 0; }

 private:
  std::vector<u64> by_pid_;
};

/// Forwarding decorator around one monitor. Counts events and timer
/// calls in every run; reads clocks only when tracing.
class AuditorTap final : public hypertap::Auditor {
 public:
  AuditorTap(std::unique_ptr<hypertap::Auditor> inner, Tracer& t, Layer busy,
             Layer timer, SyscallTally* tally = nullptr)
      : inner_(std::move(inner)), t_(t), busy_(busy), timer_(timer),
        tally_(tally) {}

  std::string name() const override { return inner_->name(); }
  hypertap::EventMask subscriptions() const override {
    return inner_->subscriptions();
  }
  void on_event(const hypertap::Event& e,
                hypertap::AuditContext& ctx) override {
    ++events_;
    if (tally_ != nullptr && e.kind == hypertap::EventKind::kSyscall) {
      tally_->count(e.sc_args[2]);
    }
    Scope s(t_, busy_);
    inner_->on_event(e, ctx);
  }
  void on_gap(u64 missed, hypertap::AuditContext& ctx) override {
    Scope s(t_, busy_);
    inner_->on_gap(missed, ctx);
  }
  void resync(hypertap::AuditContext& ctx) override {
    Scope s(t_, busy_);
    inner_->resync(ctx);
  }
  void on_attach(hypertap::AuditContext& ctx) override {
    Scope s(t_, busy_);
    inner_->on_attach(ctx);
  }
  SimTime timer_period() const override { return inner_->timer_period(); }
  void on_timer(SimTime now, hypertap::AuditContext& ctx) override {
    ++timer_calls_;
    Scope s(t_, timer_);
    inner_->on_timer(now, ctx);
  }
  bool blocking() const override { return inner_->blocking(); }
  bool architectural() const override { return inner_->architectural(); }
  Cycles audit_cost_cycles() const override {
    return inner_->audit_cost_cycles();
  }

  u64 events() const { return events_; }
  u64 timer_calls() const { return timer_calls_; }

 private:
  std::unique_ptr<hypertap::Auditor> inner_;
  Tracer& t_;
  Layer busy_;
  Layer timer_;
  SyscallTally* tally_;
  u64 events_ = 0;
  u64 timer_calls_ = 0;
};

/// Forwarding decorator around a journal segment store.
class JournalStoreTap final : public hypertap::journal::JournalStore {
 public:
  JournalStoreTap(hypertap::journal::JournalStore& inner, Tracer& t)
      : inner_(inner), t_(t) {}

  std::vector<std::string> segments() const override {
    Scope s(t_, Layer::kJournalRead);
    return inner_.segments();
  }
  std::vector<u8> read(const std::string& name) const override {
    Scope s(t_, Layer::kJournalRead);
    std::vector<u8> out = inner_.read(name);
    ++reads_;
    read_bytes_ += out.size();
    return out;
  }
  void append(const std::string& name, const u8* data,
              std::size_t n) override {
    ++appends_;
    append_bytes_ += n;
    Scope s(t_, Layer::kJournalAppend);
    inner_.append(name, data, n);
  }
  void truncate(const std::string& name, std::size_t size) override {
    Scope s(t_, Layer::kJournalAppend);
    inner_.truncate(name, size);
  }
  std::size_t size(const std::string& name) const override {
    Scope s(t_, Layer::kJournalRead);
    return inner_.size(name);
  }
  void remove(const std::string& name) override {
    Scope s(t_, Layer::kJournalAppend);
    inner_.remove(name);
  }
  void flush() override {
    Scope s(t_, Layer::kJournalAppend);
    inner_.flush();
  }

  u64 appends() const { return appends_; }
  u64 append_bytes() const { return append_bytes_; }
  u64 reads() const { return reads_; }
  u64 read_bytes() const { return read_bytes_; }

 private:
  hypertap::journal::JournalStore& inner_;
  Tracer& t_;
  u64 appends_ = 0;
  u64 append_bytes_ = 0;
  mutable u64 reads_ = 0;
  mutable u64 read_bytes_ = 0;
};

}  // namespace perfbench
