// supervised_fleet: four 2-vCPU VMs on one hv::MultiVmHost under a
// recovery::RootSupervisor (two racks, two tenants). Every VM carries the
// three monitors, a journal on a MemoryJournalStore, wired telemetry, a
// Checkpointer and a RecoveryManager; the fleet's merged registry is
// captured into an in-memory `.tlmstream` that SLO rules evaluate.
//
//   VM 0  httpd workers under an HttpLoadGenerator; suffers the
//         three-Ninjas attack (AttackDriver, DKOM rootkit) every period
//   VM 1  a looping make -j2 plus a daemon on one kernel path, where a
//         transient missing-release fault is armed through fi::FaultPlan
//         every period, so GOSHD raises the hang alarm
//   VM 2  a shell that forks short-lived children at a steady rate
//   VM 3  httpd workers under an HttpLoadGenerator (clean)
//
// One op is one supervisor epoch: MultiVmHost::run_until to the next tick,
// RootSupervisor::tick, then the stream capture and SLO evaluation. A round
// is kRoundOps epochs on a freshly built fleet.
#include <algorithm>
#include <sstream>

#include "attacks/rootkit.hpp"
#include "attacks/scenario.hpp"
#include "auditors/goshd.hpp"
#include "auditors/hrkd.hpp"
#include "auditors/ped.hpp"
#include "bench.hpp"
#include "core/hypertap.hpp"
#include "core/os_state.hpp"
#include "fi/fault.hpp"
#include "fi/locations.hpp"
#include "hv/multi_vm.hpp"
#include "journal/replay.hpp"
#include "os/syscalls.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/fleet.hpp"
#include "recovery/recovery_manager.hpp"
#include "telemetry/slo.hpp"
#include "telemetry/stream.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/httpd.hpp"
#include "workloads/make.hpp"
#include "workloads/workload.hpp"

namespace perfbench {
namespace {

using namespace hypertap;

constexpr int kVms = 4;
constexpr std::size_t kAttackedVm = 0;
constexpr std::size_t kFaultedVm = 1;
constexpr std::size_t kForkingVm = 2;
constexpr SimTime kTick = 250'000'000;            // one epoch: 250 ms
constexpr SimTime kIncidentPeriod = 20'000'000'000;  // one attack + one hang
constexpr SimTime kCheckpointPeriod = 2'000'000'000;
constexpr int kWarmupOps = 60;    // 15 s of fleet time
constexpr int kRoundOps = 600;    // 150 s of fleet time per round
constexpr u16 kFaultLocation = 5;
constexpr u32 kShellNapUs = 4'000;  // the forking shell naps 4 ms per fork

/// A shell that forks a short-lived child (the standard factory's
/// EXE_SCRIPT: a little file I/O and compute, then exit), then naps
/// kShellNapUs, forever.
class ForkingShell final : public os::Workload {
 public:
  os::Action next(os::TaskCtx&) override {
    switch (step_++ % 3) {
      case 0: return os::ActCompute{300'000};
      case 1: return os::ActSyscall{os::SYS_SPAWN, workloads::EXE_SCRIPT, 0};
      default: return os::ActSyscall{os::SYS_NANOSLEEP, kShellNapUs};
    }
  }
  std::string name() const override { return "shell"; }
  std::unique_ptr<os::Workload> clone() const override {
    return std::make_unique<ForkingShell>(*this);
  }

 private:
  int step_ = 0;
};

/// An idle process that is checkpointable (the attacker's login shell and
/// its spam processes; the attack library's own idle workload is not).
class IdleNapper final : public os::Workload {
 public:
  os::Action next(os::TaskCtx&) override {
    return os::ActSyscall{os::SYS_NANOSLEEP, 2'000'000};
  }
  std::string name() const override { return "idle"; }
  std::unique_ptr<os::Workload> clone() const override {
    return std::make_unique<IdleNapper>(*this);
  }
};

/// A daemon on one kernel path: runs location `loc` every `nap_us`.
class KernelPathDaemon final : public os::Workload {
 public:
  KernelPathDaemon(u16 loc, u32 nap_us) : loc_(loc), nap_us_(nap_us) {}
  os::Action next(os::TaskCtx&) override {
    if (step_++ % 2 == 0) return os::ActKernelCall{loc_};
    return os::ActSyscall{os::SYS_NANOSLEEP, nap_us_};
  }
  std::string name() const override { return "kpathd"; }
  std::unique_ptr<os::Workload> clone() const override {
    return std::make_unique<KernelPathDaemon>(*this);
  }

 private:
  u16 loc_;
  u32 nap_us_;
  u64 step_ = 0;
};

struct Attack {
  SimTime start = 0;
  std::unique_ptr<attacks::AttackDriver> driver;
};

/// The tracing wrappers of one VM; they outlive the VM that points at them.
struct Taps {
  std::unique_ptr<GuestOsTap> guest;
  std::unique_ptr<ExitSinkTap> sink;
  std::unique_ptr<ForwardBracket> bracket;
  std::unique_ptr<JournalStoreTap> store;
};

/// The monitored pipeline of one VM (members in construction order).
struct Member {
  journal::MemoryJournalStore store;
  std::unique_ptr<telemetry::Telemetry> tel;
  std::unique_ptr<HyperTap> ht;
  std::unique_ptr<journal::JournalWriter> writer;
  std::unique_ptr<recovery::Checkpointer> ckpt;
  std::unique_ptr<recovery::RecoveryManager> rm;
  std::unique_ptr<workloads::HttpLoadGenerator> loadgen;
  AuditorTap* taps[3] = {nullptr, nullptr, nullptr};  // HRKD, Ninja, GOSHD
};

/// One instance of the fleet: built, warmed up and run for one round.
class SupervisedFleet final : public BenchWorkload {
 public:
  SupervisedFleet(u64 seed, Tracer& t)
      : t_(t), seed_(seed), locs_(fi::generate_locations()),
        rng_(util::stream_seed(seed, 0xF1EE7)) {
    for (int i = 0; i < kVms; ++i) {
      host_.add_vm(machine_config(static_cast<std::size_t>(i)),
                   kernel_config());
    }
    taps_.resize(kVms);
    members_.resize(kVms);
    for (int i = 0; i < kVms; ++i) build_member(static_cast<std::size_t>(i));
    for (int i = 0; i < kVms; ++i) {
      host_.vm(i).kernel.boot();
      start_guest(static_cast<std::size_t>(i));
    }
    t0_ = host_.now();
    for (int i = 0; i < kVms; ++i) members_[i].ckpt->start();

    recovery::RootSupervisor::Options ro;
    ro.max_concurrent_remediations = 2;
    ro.per_tenant_max_remediations = 1;
    ro.tick = kTick;
    root_ = std::make_unique<recovery::RootSupervisor>(host_, ro);
    for (int i = 0; i < kVms; ++i) {
      root_->manage(static_cast<std::size_t>(i / 2), static_cast<std::size_t>(i),
                    *members_[i].rm, members_[i].ht.get(),
                    static_cast<u64>(i % 2));
    }
    fleet_tel_ = std::make_unique<telemetry::Telemetry>();
    host_.set_telemetry(fleet_tel_.get());
    root_->set_telemetry(fleet_tel_.get());
    if (t_.enabled()) {
      root_store_tap_ = std::make_unique<JournalStoreTap>(root_store_, t_);
    }
    root_writer_ = std::make_unique<journal::JournalWriter>(
        root_store_tap_ ? static_cast<journal::JournalStore&>(*root_store_tap_)
                        : root_store_);
    root_->set_journal(root_writer_.get());

    streamer_ = std::make_unique<telemetry::SnapshotStreamer>(stream_store_);
    slo_ = std::make_unique<telemetry::SloEngine>(telemetry::parse_slo_rules(
        // No VM may be given up on...
        "fleet-failed: threshold ht_fleet_failed_vms above 0\n"
        // ...and remediation must not storm (two incidents per period).
        "remediation-storm: rate ht_fleet_remediations above 5\n"));
    slo_->set_alarm_sink(&slo_alarms_);
    slo_->set_telemetry(fleet_tel_.get());

    schedule_attack(0);
    schedule_hang(0);
    cursor_ = std::max(host_.now(), root_->cursor());
  }

  void warm_up() override {
    for (int i = 0; i < kWarmupOps; ++i) op();
  }

  std::string witness() override {
    std::ostringstream os;
    std::string all;
    u64 exits = 0, events = 0, alarms = 0;
    for (int i = 0; i < kVms; ++i) {
      os::Vm& vm = host_.vm(i);
      std::ostringstream v;
      v << "vm" << i << ":";
      for (u8 r = 0; r < static_cast<u8>(hav::ExitReason::kCount); ++r) {
        const u64 n =
            vm.machine.engine().total_exit_count(static_cast<hav::ExitReason>(r));
        exits += n;
        v << n << "/";
      }
      const Member& m = members_[i];
      events += m.ht->forwarder().events_forwarded();
      alarms += m.ht->alarms().all().size();
      v << " ev=" << m.ht->forwarder().events_forwarded() << " alarms=";
      for (const Alarm& a : m.ht->alarms().all()) {
        v << a.auditor << "/" << a.type << "@" << a.time << ",";
      }
      v << " journal=" << journal::store_digest(m.store)
        << " remedies=" << m.rm->history().size()
        << " guest_ns=" << vm.machine.now() << ";";
      all += v.str();
    }
    const recovery::FleetLedger l = root_->ledger();
    os << "exits=" << exits << " events=" << events << " alarms=" << alarms
       << " remediations=" << l.remediations << " recoveries=" << l.recoveries
       << " stream=" << journal::store_digest(stream_store_)
       << " guest_ns=" << host_.now();
    if (!replay_.empty()) os << " replay=" << replay_;
    os << " digest=" << std::hex << fnv1a(all);
    return os.str();
  }

  void start_round() override { snap_ = counters(); }

  void op() override {
    cursor_ += kTick;
    host_.run_until(cursor_);
    {
      Scope s(t_, Layer::kRecoveryTick);
      root_->tick(cursor_);
    }
    {
      Scope s(t_, Layer::kTelemetryCapture);
      telemetry::Registry merged;
      merge_registries(merged);
      streamer_->capture(cursor_, merged);
    }
    {
      Scope s(t_, Layer::kTelemetrySlo);
      slo_->evaluate(cursor_, streamer_->state());
    }
  }

  /// Output checks at the end of the round. Each VM's journal replay is an
  /// operation of its own: it counts in `attempted`, and in `failed` when
  /// the replayed alarms diverge from the recorded ones (see check_replay).
  void end_round(std::vector<std::string>& failures, u64& attempted,
                 u64& failed, std::vector<std::string>& failed_ops) override {
    const SimTime end = host_.now();
    check_attacks(failures, end);
    check_hangs(failures, end);
    for (const std::size_t i : {std::size_t{2}, std::size_t{3}}) {
      for (const Alarm& a : members_[i].ht->alarms().all()) {
        failures.push_back("clean vm" + std::to_string(i) + " alarmed: " +
                           a.auditor + "/" + a.type + " " + a.detail);
      }
    }
    for (int i = 0; i < kVms; ++i) {
      if (members_[i].rm->health() == recovery::VmHealth::kFailed) {
        failures.push_back("vm" + std::to_string(i) + " ended failed");
      }
    }
    for (const Alarm& a : slo_alarms_.all()) {
      failures.push_back("SLO alarm: " + a.type + " " + a.detail);
    }
    check_stream(failures);
    check_replay(failures, attempted, failed, failed_ops);
  }

  void layer_totals(LayerValues& out) override {
    const Counters now = counters();
    const auto delta = [](u64 a, u64 b) { return static_cast<double>(a - b); };
    out["os.kernel.calls"] = delta(now.kernel_calls, snap_.kernel_calls);
    out["hav.exits"] = delta(now.exits, snap_.exits);
    out["core.events"] = delta(now.events, snap_.events);
    static constexpr const char* kNames[3] = {"hrkd", "ht_ninja", "goshd"};
    for (int a = 0; a < 3; ++a) {
      const std::string p = std::string("auditors.") + kNames[a];
      out[p + ".events"] = delta(now.aud_events[a], snap_.aud_events[a]);
      out[p + ".timer_calls"] = delta(now.aud_timers[a], snap_.aud_timers[a]);
    }
    out["journal.appends"] = delta(now.appends, snap_.appends);
    out["journal.append_bytes"] = delta(now.append_bytes, snap_.append_bytes);
    out["journal.reads"] = delta(now.reads, snap_.reads);
    out["journal.read_bytes"] = delta(now.read_bytes, snap_.read_bytes);
    out["journal.records"] = delta(now.records, snap_.records);
    out["journal.replays"] = delta(now.replays, snap_.replays);
    out["telemetry.spans"] = delta(now.spans, snap_.spans);
    out["telemetry.spans_dropped"] = delta(now.spans_dropped, snap_.spans_dropped);
    out["telemetry.stream_bytes"] = delta(now.stream_bytes, snap_.stream_bytes);
    out["recovery.remediations"] = delta(now.remediations, snap_.remediations);
    out["recovery.checkpoint_bytes"] =
        delta(now.checkpoint_bytes, snap_.checkpoint_bytes);
    // Task-table entries and live tasks summed over the VMs.
    double table = 0, live = 0;
    for (int i = 0; i < kVms; ++i) {
      table += static_cast<double>(host_.vm(i).kernel.num_tasks());
      live += static_cast<double>(host_.vm(i).kernel.live_pids().size());
    }
    out["os.kernel.task_table"] = table;
    out["os.kernel.live_tasks"] = live;
  }

 private:
  struct Counters {
    u64 kernel_calls = 0, exits = 0, events = 0;
    u64 aud_events[3] = {0, 0, 0}, aud_timers[3] = {0, 0, 0};
    u64 appends = 0, append_bytes = 0, reads = 0, read_bytes = 0;
    u64 records = 0, replays = 0;
    u64 spans = 0, spans_dropped = 0, stream_bytes = 0;
    u64 remediations = 0, checkpoint_bytes = 0;
  };

  Counters counters() {
    Counters c;
    for (int i = 0; i < kVms; ++i) {
      Member& m = members_[i];
      if (taps_[i].guest) c.kernel_calls += taps_[i].guest->calls();
      for (u8 r = 0; r < static_cast<u8>(hav::ExitReason::kCount); ++r) {
        c.exits += host_.vm(i).machine.engine().total_exit_count(
            static_cast<hav::ExitReason>(r));
      }
      c.events += m.ht->forwarder().events_forwarded();
      for (int a = 0; a < 3; ++a) {
        c.aud_events[a] += m.taps[a]->events();
        c.aud_timers[a] += m.taps[a]->timer_calls();
      }
      if (taps_[i].store) add_store(c, *taps_[i].store);
      c.records += m.writer->records();
      c.replays += m.rm->journal_replays();
      c.spans += m.tel->tracer.spans().size() + m.tel->tracer.dropped();
      c.spans_dropped += m.tel->tracer.dropped();
    }
    if (root_store_tap_) add_store(c, *root_store_tap_);
    c.records += root_writer_->records();
    c.spans += fleet_tel_->tracer.spans().size() + fleet_tel_->tracer.dropped();
    c.spans_dropped += fleet_tel_->tracer.dropped();
    c.stream_bytes = streamer_->bytes_written();
    const recovery::FleetLedger l = root_->ledger();
    c.remediations = l.remediations;
    c.checkpoint_bytes = l.checkpoint_bytes;
    return c;
  }

  hv::MachineConfig machine_config(std::size_t i) const {
    hv::MachineConfig mc;
    mc.num_vcpus = 2;
    mc.phys_mem_bytes = 8ull << 20;
    mc.seed = util::stream_seed(seed_, static_cast<u64>(i));
    return mc;
  }

  os::KernelConfig kernel_config() const {
    os::KernelConfig kc;
    kc.spawn_factory = workloads::standard_factory(&locs_);
    return kc;
  }

  static void add_store(Counters& c, const JournalStoreTap& s) {
    c.appends += s.appends();
    c.append_bytes += s.append_bytes();
    c.reads += s.reads();
    c.read_bytes += s.read_bytes();
  }

  void build_member(std::size_t i) {
    Member& m = members_[i];
    Taps& tp = taps_[i];
    os::Vm& vm = host_.vm(i);
    vm.kernel.register_locations(locs_);
    if (t_.enabled()) {
      tp.guest = std::make_unique<GuestOsTap>(vm.kernel, t_);
      vm.machine.set_guest(tp.guest.get());
      tp.sink = std::make_unique<ExitSinkTap>(vm.machine.hypervisor(), t_);
      vm.machine.engine().set_sink(tp.sink.get());
      tp.bracket = std::make_unique<ForwardBracket>(t_);
      vm.machine.hypervisor().add_observer(&tp.bracket->open());
    }
    m.ht = std::make_unique<HyperTap>(vm);
    if (tp.bracket) vm.machine.hypervisor().add_observer(&tp.bracket->close());
    m.tel = std::make_unique<telemetry::Telemetry>();
    m.ht->set_telemetry(m.tel.get(), static_cast<int>(i));

    const auto add = [&](std::unique_ptr<Auditor> a, int slot, Layer busy,
                         Layer timer) {
      auto tap = std::make_unique<AuditorTap>(std::move(a), t_, busy, timer);
      m.taps[slot] = tap.get();
      m.ht->add_auditor(std::move(tap));
    };
    add(std::make_unique<auditors::Hrkd>(
            auditors::Hrkd::Config{},
            [&k = vm.kernel]() { return k.in_guest_view_pids(); }),
        0, Layer::kHrkdBusy, Layer::kHrkdTimer);
    add(std::make_unique<auditors::HtNinja>(), 1, Layer::kNinjaBusy,
        Layer::kNinjaTimer);
    add(std::make_unique<auditors::Goshd>(vm.machine.num_vcpus()), 2,
        Layer::kGoshdBusy, Layer::kGoshdTimer);

    if (t_.enabled()) tp.store = std::make_unique<JournalStoreTap>(m.store, t_);
    m.writer = std::make_unique<journal::JournalWriter>(
        tp.store ? static_cast<journal::JournalStore&>(*tp.store) : m.store);
    m.ht->attach_journal(m.writer.get());

    recovery::Checkpointer::Options co;
    co.period = kCheckpointPeriod;
    m.ckpt = std::make_unique<recovery::Checkpointer>(vm, co);
    recovery::RecoveryPolicy pol;
    pol.backoff_jitter_frac = 0.25;
    pol.backoff_seed = seed_;
    pol.backoff_stream = i;
    m.rm = std::make_unique<recovery::RecoveryManager>(vm, *m.ht, *m.ckpt, pol);
    m.rm->set_telemetry(m.tel.get(), static_cast<int>(i));
    m.rm->set_journal(m.writer.get());
  }

  void start_guest(std::size_t i) {
    os::Vm& vm = host_.vm(i);
    Member& m = members_[i];
    util::Rng wrng(util::stream_seed(seed_, 100 + i));
    const auto httpd = [&]() {
      for (int wk = 0; wk < 2; ++wk) {
        vm.kernel.spawn("httpd", 30, 30, 1,
                        std::make_unique<workloads::HttpdWorkerWorkload>(
                            workloads::HttpdWorkerWorkload::Config{}, &locs_,
                            wrng.next()));
      }
      m.loadgen =
          std::make_unique<workloads::HttpLoadGenerator>(vm.kernel, 200.0);
      vm.machine.add_net_tx_sink(m.loadgen->response_sink());
      m.loadgen->start(vm.machine);
    };
    switch (i) {
      case kAttackedVm: {
        httpd();
        // The attacker's login session: a shell and two spam processes.
        shell_pid_ = vm.kernel.spawn("bash", 1000, 1000, 1,
                                     std::make_unique<IdleNapper>());
        for (int s = 0; s < 2; ++s) {
          vm.kernel.spawn("idle", 1000, 1000, shell_pid_,
                          std::make_unique<IdleNapper>());
        }
        break;
      }
      case kFaultedVm: {
        for (int j = 0; j < 2; ++j) {
          workloads::MakeJobWorkload::Config mcfg;
          mcfg.units = 1'000'000;  // loops for the whole run
          vm.kernel.spawn("make", 1000, 1000, 1,
                          std::make_unique<workloads::MakeJobWorkload>(
                              mcfg, &locs_, wrng.next()));
        }
        vm.kernel.spawn("kpathd", 0, 0, 1,
                        std::make_unique<KernelPathDaemon>(kFaultLocation,
                                                           50'000));
        break;
      }
      case kForkingVm: {
        vm.kernel.spawn("sh", 1000, 1000, 1,
                        std::make_unique<ForkingShell>());
        break;
      }
      default:
        httpd();
        break;
    }
  }

  /// Attack k lands 50 ms after one of the periodic checkpoints of its
  /// period, so no checkpoint is taken while the (non-checkpointable)
  /// attacker runs undetected.
  void schedule_attack(u64 k) {
    const SimTime at = t0_ + static_cast<SimTime>(k) * kIncidentPeriod +
                       static_cast<SimTime>(1 + rng_.below(3)) * kCheckpointPeriod +
                       50'000'000;
    os::Vm& vm = host_.vm(kAttackedVm);
    vm.machine.schedule(at, [this, k, &vm]() {
      attacks::AttackPlan plan;
      plan.rootkit = attacks::rootkit_by_name("FU");
      plan.exit_after = false;
      auto driver = std::make_unique<attacks::AttackDriver>(vm.kernel, plan);
      driver->set_existing_shell(shell_pid_);
      driver->launch();
      attacks_.push_back(Attack{vm.machine.now(), std::move(driver)});
      schedule_attack(k + 1);
    });
  }

  /// Hang k: a transient missing-release fault on the daemon's kernel
  /// path, armed in the second half of its period.
  void schedule_hang(u64 k) {
    const SimTime at = t0_ + static_cast<SimTime>(k) * kIncidentPeriod +
                       kIncidentPeriod / 2 +
                       static_cast<SimTime>(rng_.below(4)) * 500'000'000;
    os::Vm& vm = host_.vm(kFaultedVm);
    vm.machine.schedule(at, [this, k, &vm]() {
      plans_.push_back(std::make_unique<fi::FaultPlan>(
          fi::FaultSpec{kFaultLocation, os::FaultClass::kMissingRelease, true},
          [&m = vm.machine]() { return m.now(); }));
      vm.kernel.set_location_hook(plans_.back().get());
      schedule_hang(k + 1);
    });
  }

  void merge_registries(telemetry::Registry& merged) const {
    for (const Member& m : members_) merged.merge_from(m.tel->registry);
    merged.merge_from(fleet_tel_->registry);
  }

  void check_attacks(std::vector<std::string>& failures, SimTime end) {
    const auto& alarms = members_[kAttackedVm].ht->alarms().all();
    for (std::size_t k = 0; k < attacks_.size(); ++k) {
      const SimTime start = attacks_[k].start;
      const SimTime until =
          k + 1 < attacks_.size() ? attacks_[k + 1].start : end;
      if (until - start < 2'000'000'000) continue;  // still in flight at the end
      const u32 pid = attacks_[k].driver->attacker_pid();
      bool hidden = false, escalation = false;
      for (const Alarm& a : alarms) {
        if (a.time < start || a.time >= until) continue;
        hidden |= a.auditor == "HRKD" && a.type == "hidden-task" && a.pid == pid;
        escalation |= a.auditor == "HT-Ninja" && a.type == "priv-escalation";
      }
      if (!hidden || !escalation) {
        failures.push_back("attack " + std::to_string(k) + " on vm0 at " +
                           std::to_string(start) + ": hidden-task alarm " +
                           (hidden ? "raised" : "missing") +
                           ", priv-escalation alarm " +
                           (escalation ? "raised" : "missing"));
      }
    }
    for (const Alarm& a : alarms) {
      if (attacks_.empty() || a.time < attacks_.front().start) {
        failures.push_back("vm0 alarmed before the first attack: " + a.type);
      }
    }
  }

  void check_hangs(std::vector<std::string>& failures, SimTime end) {
    const auto& alarms = members_[kFaultedVm].ht->alarms().all();
    SimTime first_activation = -1;
    for (std::size_t k = 0; k < plans_.size(); ++k) {
      const SimTime act = plans_[k]->first_activation();
      if (act < 0) continue;
      if (first_activation < 0) first_activation = act;
      if (end - act < 8'000'000'000) continue;  // detection still pending
      bool hang = false;
      for (const Alarm& a : alarms) {
        hang |= a.auditor == "GOSHD" && a.time >= act &&
                (a.type == "vcpu-hang" || a.type == "full-hang") &&
                a.time < act + 8'000'000'000;
      }
      if (!hang) {
        failures.push_back("fault " + std::to_string(k) + " on vm1 activated at " +
                           std::to_string(act) + " without a GOSHD hang alarm");
      }
    }
    if (first_activation < 0) failures.push_back("no fault ever activated on vm1");
    for (const Alarm& a : alarms) {
      if (first_activation < 0 || a.time < first_activation) {
        failures.push_back("vm1 alarmed before the first activation: " + a.type);
      }
    }
  }

  void check_stream(std::vector<std::string>& failures) {
    // A closing frame, so that series the SLO evaluation touched after the
    // last epoch's capture are in the stream too.
    {
      telemetry::Registry merged;
      merge_registries(merged);
      streamer_->capture(cursor_, merged);
    }
    telemetry::SnapshotStreamReader reader(stream_store_);
    u64 frames = 0;
    while (reader.next()) ++frames;
    if (frames != streamer_->frames() || reader.quarantined() != 0 ||
        reader.torn_tail()) {
      failures.push_back("stream decoded " + std::to_string(frames) + " of " +
                         std::to_string(streamer_->frames()) + " frames (" +
                         std::to_string(reader.quarantined()) + " quarantined)");
      return;
    }
    telemetry::Registry live;
    merge_registries(live);
    const telemetry::StreamState& s = reader.state();
    std::size_t mismatches = 0, series = 0;
    live.for_each_counter([&](const std::string& k, const telemetry::Counter& c) {
      ++series;
      const auto it = s.counters.find(k);
      if (it == s.counters.end() || it->second != c.value()) ++mismatches;
    });
    live.for_each_gauge([&](const std::string& k, const telemetry::Gauge& g) {
      ++series;
      const auto it = s.gauges.find(k);
      if (it == s.gauges.end() || it->second != g.value()) ++mismatches;
    });
    live.for_each_histogram(
        [&](const std::string& k, const telemetry::Histogram& h) {
          ++series;
          const auto it = s.hists.find(k);
          if (it == s.hists.end() || it->second.count != h.count() ||
              it->second.sum != h.sum()) {
            ++mismatches;
          }
        });
    if (mismatches != 0 ||
        series != s.counters.size() + s.gauges.size() + s.hists.size()) {
      failures.push_back("decoded stream state differs from the live merged "
                         "registry in " + std::to_string(mismatches) + " of " +
                         std::to_string(series) + " series");
    }
  }

  /// Every VM's journal is replayed through journal::Replayer into a fresh
  /// pipeline, as replay.hpp prescribes: a freshly booted VM of the same
  /// configuration, a new OS-state derivation and alarm sink, and newly
  /// constructed monitors. Every record must decode and be consumed (a
  /// check), and the replayed alarm sequence must equal the recorded one
  /// (the replay operation; a divergence is a failed operation).
  void check_replay(std::vector<std::string>& failures, u64& attempted,
                    u64& failed, std::vector<std::string>& failed_ops) {
    replay_.clear();
    for (int i = 0; i < kVms; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      Member& m = members_[idx];
      m.writer->flush();
      os::Vm vm(machine_config(idx), kernel_config());
      vm.kernel.boot();
      AlarmSink sink;
      OsStateDerivation os_state(vm.machine.hypervisor(), vm.kernel.layout());
      AuditContext ctx(vm.machine.hypervisor(), os_state, sink);
      EventMultiplexer em;
      auditors::Hrkd hrkd(auditors::Hrkd::Config{},
                          [&k = vm.kernel]() { return k.in_guest_view_pids(); });
      auditors::HtNinja ninja;
      auditors::Goshd goshd(vm.machine.num_vcpus());
      em.register_auditor(&hrkd, ctx);
      em.register_auditor(&ninja, ctx);
      em.register_auditor(&goshd, ctx);
      journal::Replayer rp(m.store);
      const journal::ReplayResult r =
          rp.replay(em, ctx, vm.machine.hypervisor().vcpu(0));
      const std::string vm_name = "vm" + std::to_string(i);
      if (r.quarantined != 0 || r.torn_tail ||
          r.events + r.timers + r.alarm_records != m.writer->records()) {
        failures.push_back(vm_name + " journal: " +
                           std::to_string(r.events + r.timers + r.alarm_records) +
                           " of " + std::to_string(m.writer->records()) +
                           " records replayed, " +
                           std::to_string(r.quarantined) + " quarantined");
        replay_ += "?";
        continue;
      }
      ++attempted;
      replay_ += r.matches_recording ? "M" : "D";
      if (r.matches_recording) continue;
      ++failed;
      failed_ops.push_back(vm_name + " journal replay diverged at alarm " +
                           std::to_string(r.first_divergence) + " (" +
                           std::to_string(r.alarms.size()) + " replayed, " +
                           std::to_string(r.recorded.size()) + " recorded): " +
                           r.divergence.describe());
    }
  }

  Tracer& t_;
  u64 seed_;
  std::vector<os::KernelLocation> locs_;
  util::Rng rng_;
  // Declared before the host, so they outlive the VMs that point at them.
  std::vector<Taps> taps_;
  std::vector<std::unique_ptr<fi::FaultPlan>> plans_;
  hv::MultiVmHost host_;
  std::vector<Member> members_;
  std::vector<Attack> attacks_;
  std::unique_ptr<telemetry::Telemetry> fleet_tel_;
  journal::MemoryJournalStore root_store_;
  std::unique_ptr<JournalStoreTap> root_store_tap_;
  std::unique_ptr<journal::JournalWriter> root_writer_;
  std::unique_ptr<recovery::RootSupervisor> root_;
  journal::MemoryJournalStore stream_store_;
  std::unique_ptr<telemetry::SnapshotStreamer> streamer_;
  AlarmSink slo_alarms_;
  std::unique_ptr<telemetry::SloEngine> slo_;
  u32 shell_pid_ = 0;
  SimTime t0_ = 0;
  SimTime cursor_ = 0;
  Counters snap_;
  std::string replay_;  ///< per VM: M = replay matched, D = diverged
};


}  // namespace

const WorkloadSpec kSupervisedFleet{
    [](u64 seed, Tracer& t) -> std::unique_ptr<BenchWorkload> {
      return std::make_unique<SupervisedFleet>(seed, t);
    },
    kRoundOps, 99.0};

}  // namespace perfbench
