// syscall_storm: one 2-vCPU VM with HRKD, HT-Ninja and GOSHD attached,
// telemetry unwired, no journal. Each vCPU runs the Busy mix; one op
// advances the guest by kSlice of simulated time, and a round is kRoundOps
// ops on a fresh VM. The monitor hot path
// (exit -> forward -> checksum -> fan-out -> auditors -> trusted guest
// reads) does most of the host work here.
#include <set>
#include <sstream>

#include "auditors/goshd.hpp"
#include "auditors/hrkd.hpp"
#include "auditors/ped.hpp"
#include "bench.hpp"
#include "core/hypertap.hpp"
#include "os/syscalls.hpp"

namespace perfbench {
namespace {

using namespace hypertap;

/// bench/telemetry_overhead's Busy mix (compute, write, getpid, yield),
/// with each syscall tagged by the caller's pid and counted as issued.
class BusyMix final : public os::Workload {
 public:
  explicit BusyMix(int phase) : i_(phase) {}
  os::Action next(os::TaskCtx& ctx) override {
    const u32 tag = kSyscallTag | ctx.pid;
    switch (i_++ % 4) {
      case 0: return os::ActCompute{400'000};
      case 1: ++issued_; return os::ActSyscall{os::SYS_WRITE, 3, 2048, tag};
      case 2: ++issued_; return os::ActSyscall{os::SYS_GETPID, 0, 0, tag};
      default: ++issued_; return os::ActSyscall{os::SYS_YIELD, 0, 0, tag};
    }
  }
  std::string name() const override { return "busy"; }
  std::unique_ptr<os::Workload> clone() const override {
    return std::make_unique<BusyMix>(*this);
  }
  u64 issued() const { return issued_; }

 private:
  int i_;
  u64 issued_ = 0;
};

constexpr SimTime kSlice = 100'000'000;  // 100 ms of guest time per op
constexpr int kWarmupOps = 20;
constexpr std::size_t kRoundOps = 600;    // 60 s of guest time per round

class SyscallStorm final : public BenchWorkload {
 public:
  SyscallStorm(u64 seed, Tracer& t) : t_(t), vm_(machine_config(seed)) {
    if (t_.enabled()) {
      guest_tap_ = std::make_unique<GuestOsTap>(vm_.kernel, t_);
      vm_.machine.set_guest(guest_tap_.get());
      sink_tap_ = std::make_unique<ExitSinkTap>(vm_.machine.hypervisor(), t_);
      vm_.machine.engine().set_sink(sink_tap_.get());
      bracket_ = std::make_unique<ForwardBracket>(t_);
      vm_.machine.hypervisor().add_observer(&bracket_->open());
    }
    ht_ = std::make_unique<HyperTap>(vm_);
    if (bracket_) vm_.machine.hypervisor().add_observer(&bracket_->close());

    auto hrkd = std::make_unique<auditors::Hrkd>(
        auditors::Hrkd::Config{},
        [&k = vm_.kernel]() { return k.in_guest_view_pids(); });
    hrkd_ = hrkd.get();
    hrkd_tap_ = add(std::move(hrkd), Layer::kHrkdBusy, Layer::kHrkdTimer);
    ninja_tap_ = add(std::make_unique<auditors::HtNinja>(), Layer::kNinjaBusy,
                     Layer::kNinjaTimer, &tally_);
    goshd_tap_ = add(std::make_unique<auditors::Goshd>(vm_.machine.num_vcpus()),
                     Layer::kGoshdBusy, Layer::kGoshdTimer);

    vm_.kernel.boot();
    for (int cpu = 0; cpu < vm_.machine.num_vcpus(); ++cpu) {
      auto w = std::make_unique<BusyMix>(static_cast<int>((seed >> cpu) & 3));
      busy_.push_back(w.get());
      pids_.push_back(
          vm_.kernel.spawn("busy", 1000, 1000, 1, std::move(w), 0, cpu));
    }
  }

  void warm_up() override {
    for (int i = 0; i < kWarmupOps; ++i) op();
  }

  std::string witness() override {
    std::ostringstream os;
    const auto& eng = vm_.machine.engine();
    os << "exits=";
    for (u8 r = 0; r < static_cast<u8>(hav::ExitReason::kCount); ++r) {
      os << (r ? "/" : "")
         << eng.total_exit_count(static_cast<hav::ExitReason>(r));
    }
    os << " events=" << ht_->forwarder().events_forwarded()
       << " alarms=" << ht_->alarms().all().size()
       << " syscalls=" << vm_.kernel.total_syscalls()
       << " guest_ns=" << vm_.machine.now();
    return os.str();
  }

  void start_round() override {
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      issued0_.push_back(busy_[i]->issued());
      delivered0_.push_back(tally_.of(pids_[i]));
    }
    snap_ = counters();
  }

  void op() override { vm_.machine.run_for(kSlice); }

  void end_round(std::vector<std::string>& failures, u64&, u64&,
                 std::vector<std::string>&) override {
    for (const Alarm& a : ht_->alarms().all()) {
      failures.push_back("alarm on the clean guest: " + a.auditor + "/" +
                         a.type + " " + a.detail);
    }
    // Syscall conservation per task over the round: every syscall the
    // guest program issued reaches HT-Ninja, up to the one call in flight
    // at each end of the round.
    for (std::size_t i = 0; i < busy_.size(); ++i) {
      const i64 issued = static_cast<i64>(busy_[i]->issued() - issued0_[i]);
      const i64 delivered =
          static_cast<i64>(tally_.of(pids_[i]) - delivered0_[i]);
      if (issued <= 0 || delivered - issued > 2 || issued - delivered > 2) {
        failures.push_back("pid " + std::to_string(pids_[i]) + ": issued " +
                           std::to_string(issued) + " syscalls, HT-Ninja saw " +
                           std::to_string(delivered));
      }
    }
    // The address spaces HRKD derives from CR3 loads (Fig. 3A) are
    // exactly those of the kernel's live tasks plus the boot directory.
    hrkd_->count_address_spaces(ht_->context());
    std::set<u32> truth{static_cast<u32>(vm_.kernel.init_pgd())};
    for (const u32 pid : vm_.kernel.live_pids()) {
      const os::Task* t = vm_.kernel.find_task(pid);
      if (t != nullptr && t->pdba != 0) truth.insert(static_cast<u32>(t->pdba));
    }
    if (hrkd_->pdba_set() != truth) {
      failures.push_back("HRKD derived " +
                         std::to_string(hrkd_->pdba_set().size()) +
                         " address spaces, the kernel has " +
                         std::to_string(truth.size()));
    }
  }

  void layer_totals(LayerValues& out) override {
    const Counters now = counters();
    const auto delta = [](u64 a, u64 b) { return static_cast<double>(a - b); };
    out["os.kernel.calls"] = delta(now.kernel_calls, snap_.kernel_calls);
    out["hav.exits"] = delta(now.exits, snap_.exits);
    out["core.events"] = delta(now.events, snap_.events);
    out["auditors.hrkd.events"] = delta(now.hrkd_ev, snap_.hrkd_ev);
    out["auditors.hrkd.timer_calls"] = delta(now.hrkd_tm, snap_.hrkd_tm);
    out["auditors.ht_ninja.events"] = delta(now.ninja_ev, snap_.ninja_ev);
    out["auditors.ht_ninja.timer_calls"] = delta(now.ninja_tm, snap_.ninja_tm);
    out["auditors.goshd.events"] = delta(now.goshd_ev, snap_.goshd_ev);
    out["auditors.goshd.timer_calls"] = delta(now.goshd_tm, snap_.goshd_tm);
    out["os.kernel.task_table"] = static_cast<double>(vm_.kernel.num_tasks());
    out["os.kernel.live_tasks"] =
        static_cast<double>(vm_.kernel.live_pids().size());
  }

 private:
  struct Counters {
    u64 kernel_calls = 0, exits = 0, events = 0;
    u64 hrkd_ev = 0, hrkd_tm = 0, ninja_ev = 0, ninja_tm = 0, goshd_ev = 0,
        goshd_tm = 0;
  };
  Counters counters() {
    Counters c;
    c.kernel_calls = guest_tap_ ? guest_tap_->calls() : 0;
    const auto& eng = vm_.machine.engine();
    for (u8 r = 0; r < static_cast<u8>(hav::ExitReason::kCount); ++r) {
      c.exits += eng.total_exit_count(static_cast<hav::ExitReason>(r));
    }
    c.events = ht_->forwarder().events_forwarded();
    c.hrkd_ev = hrkd_tap_->events();
    c.hrkd_tm = hrkd_tap_->timer_calls();
    c.ninja_ev = ninja_tap_->events();
    c.ninja_tm = ninja_tap_->timer_calls();
    c.goshd_ev = goshd_tap_->events();
    c.goshd_tm = goshd_tap_->timer_calls();
    return c;
  }

  static hv::MachineConfig machine_config(u64 seed) {
    hv::MachineConfig mc;
    mc.num_vcpus = 2;
    mc.phys_mem_bytes = 16ull << 20;
    mc.seed = seed;
    return mc;
  }

  AuditorTap* add(std::unique_ptr<Auditor> a, Layer busy, Layer timer,
                  SyscallTally* tally = nullptr) {
    auto tap = std::make_unique<AuditorTap>(std::move(a), t_, busy, timer,
                                            tally);
    AuditorTap* raw = tap.get();
    ht_->add_auditor(std::move(tap));
    return raw;
  }

  Tracer& t_;
  // The wrappers outlive the VM that points at them.
  std::unique_ptr<GuestOsTap> guest_tap_;
  std::unique_ptr<ExitSinkTap> sink_tap_;
  std::unique_ptr<ForwardBracket> bracket_;
  os::Vm vm_;
  std::unique_ptr<HyperTap> ht_;
  SyscallTally tally_;
  auditors::Hrkd* hrkd_ = nullptr;
  AuditorTap* hrkd_tap_ = nullptr;
  AuditorTap* ninja_tap_ = nullptr;
  AuditorTap* goshd_tap_ = nullptr;
  std::vector<BusyMix*> busy_;
  std::vector<u32> pids_;
  std::vector<u64> issued0_, delivered0_;
  Counters snap_;
};

}  // namespace

const WorkloadSpec kSyscallStorm{
    [](u64 seed, Tracer& t) -> std::unique_ptr<BenchWorkload> {
      return std::make_unique<SyscallStorm>(seed, t);
    },
    kRoundOps, 99.0};

}  // namespace perfbench
