// fi_campaign: a strided §VIII-A2 grid (Fig. 4's four workloads x
// transient/persistent x preemptible/non-preemptible), one fi::run_one at
// a time with recovery enabled and a fresh MemoryJournalStore per run. One
// op is one injection experiment; a round is one pass over the grid in a
// seeded order. Every op boots a fresh VM running GOSHD
// only, so boot, fault activation, checkpoint restore and suffix replay
// dominate; the per-event hot path is a small share.
#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "fi/campaign.hpp"
#include "fi/locations.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace hypertap;

constexpr int kStride = 40;
constexpr std::size_t kGridCells = 160;  // the stride-40 grid: one round
constexpr std::size_t kWarmupOps = 4;

class FiCampaign final : public BenchWorkload {
 public:
  FiCampaign(u64 seed, Tracer& t)
      : t_(t), locations_(fi::generate_locations()),
        grid_(fi::build_grid(locations_, kStride)) {
    if (grid_.size() != kGridCells) {
      throw std::logic_error("fi_campaign: the stride-40 grid has " +
                             std::to_string(grid_.size()) + " cells, not 160");
    }
    for (auto& cfg : grid_) cfg.enable_recovery = true;
    // The grid's cells are the same for every seed; the seed orders the
    // round, so any part of a round samples the whole grid.
    order_.resize(grid_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    util::Rng rng(util::stream_seed(seed, 0xF1CA3B));
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng.below(i)]);
    }
  }

  /// The first kWarmupOps cells of the grid, the same for every seed.
  void warm_up() override {
    for (std::size_t i = 0; i < kWarmupOps; ++i) run(i);
  }

  /// Every run so far: its outcome tally and a digest of each run's cell,
  /// outcome, activation, first alarm, remediations, MTTR, journal records
  /// and replays, checkpoint bytes and journal digest, in order.
  std::string witness() override {
    std::ostringstream os;
    os << "runs=" << runs_ << " outcomes=";
    for (std::size_t i = 0; i < 6; ++i) {
      os << (i ? "/" : "") << all_outcomes_[i];
    }
    os << " digest=" << std::hex << fnv1a(log_);
    return os.str();
  }

  void start_round() override { tally_ = Tally{}; }

  void op() override {
    run(order_[next_ % order_.size()]);
    ++next_;
  }

  void end_round(std::vector<std::string>& failures, u64&, u64&,
                 std::vector<std::string>&) override {
    const auto fail_if = [&failures](u64 n, const char* what) {
      if (n > 0) failures.push_back(std::to_string(n) + " runs " + what);
    };
    fail_if(tally_.alarm_without_fault, "raised an alarm without activation");
    fail_if(tally_.outcomes[static_cast<std::size_t>(fi::Outcome::kNotDetected)],
            "hung visibly without a GOSHD alarm (not-detected)");
    fail_if(tally_.alarm_before_activation,
            "alarmed before their fault activated");
    fail_if(tally_.bad_recovery,
            "recovered without a remediation or a positive MTTR");
  }

  void layer_totals(LayerValues& out) override {
    const auto total = [](u64 n) { return static_cast<double>(n); };
    static constexpr const char* kOutcomes[] = {
        "fi.outcome.not_activated", "fi.outcome.not_manifested",
        "fi.outcome.not_detected",  "fi.outcome.partial_hang",
        "fi.outcome.full_hang",     "fi.outcome.recovered"};
    for (std::size_t i = 0; i < 6; ++i) {
      out[kOutcomes[i]] = total(tally_.outcomes[i]);
    }
    out["fi.activated"] = total(tally_.activated);
    out["recovery.remediations"] = total(tally_.remediations);
    out["recovery.checkpoint_bytes"] = total(tally_.checkpoint_bytes);
    out["journal.records"] = total(tally_.journal_records);
    out["journal.replays"] = total(tally_.journal_replays);
    out["journal.appends"] = total(tally_.appends);
    out["journal.append_bytes"] = total(tally_.append_bytes);
    out["journal.reads"] = total(tally_.reads);
    out["journal.read_bytes"] = total(tally_.read_bytes);
    out["hav.exits"] = total(tally_.exits);
    out["core.events"] = total(tally_.events);
  }

 private:
  struct Tally {
    u64 outcomes[6] = {0, 0, 0, 0, 0, 0};
    u64 activated = 0;
    u64 remediations = 0;
    u64 checkpoint_bytes = 0;
    u64 journal_records = 0;
    u64 journal_replays = 0;
    u64 appends = 0, append_bytes = 0, reads = 0, read_bytes = 0;
    u64 exits = 0, events = 0;
    u64 alarm_without_fault = 0;
    u64 alarm_before_activation = 0;
    u64 bad_recovery = 0;
  };

  void run(std::size_t cell) {
    fi::RunConfig cfg = grid_[cell];
    journal::MemoryJournalStore store;
    std::unique_ptr<JournalStoreTap> tap;
    std::unique_ptr<telemetry::Telemetry> tel;
    if (t_.enabled()) {
      tap = std::make_unique<JournalStoreTap>(store, t_);
      tel = std::make_unique<telemetry::Telemetry>();
      cfg.telemetry = tel.get();
    }
    cfg.journal_store = tap ? static_cast<journal::JournalStore*>(tap.get())
                            : &store;
    const fi::RunResult r = fi::run_one(cfg, locations_);
    if (tap) {
      tally_.appends += tap->appends();
      tally_.append_bytes += tap->append_bytes();
      tally_.reads += tap->reads();
      tally_.read_bytes += tap->read_bytes();
    }
    if (tel) {
      tel->registry.for_each_counter(
          [this](const std::string& key, const telemetry::Counter& c) {
            if (key.rfind("ht_exits_total{", 0) == 0) tally_.exits += c.value();
            if (key.rfind("ht_events_total{", 0) == 0) {
              tally_.events += c.value();
            }
          });
    }
    std::ostringstream os;
    os << cell << ":" << fi::to_string(r.outcome) << "/" << r.activation << "/"
       << r.first_alarm << "/" << r.remediations << "/" << r.mttr << "/"
       << r.journal_records << "/" << r.journal_replays << "/"
       << r.checkpoint_bytes << "/" << journal::store_digest(store) << ";";
    log_ += os.str();
    ++runs_;
    ++all_outcomes_[static_cast<std::size_t>(r.outcome)];
    tally(r);
  }

  void tally(const fi::RunResult& r) {
    tally_.outcomes[static_cast<std::size_t>(r.outcome)] += 1;
    if (r.activated) ++tally_.activated;
    tally_.remediations += static_cast<u64>(r.remediations);
    tally_.checkpoint_bytes += r.checkpoint_bytes;
    tally_.journal_records += r.journal_records;
    tally_.journal_replays += r.journal_replays;
    // Properties every run must have (§VIII-A2 classification sanity).
    if (!r.activated && (r.first_alarm >= 0 || r.full_alarm >= 0)) {
      ++tally_.alarm_without_fault;
    }
    if (r.activated && r.first_alarm >= 0 && r.first_alarm < r.activation) {
      ++tally_.alarm_before_activation;
    }
    if (r.outcome == fi::Outcome::kRecovered &&
        (r.remediations < 1 || r.mttr <= 0)) {
      ++tally_.bad_recovery;
    }
  }

  Tracer& t_;
  std::vector<os::KernelLocation> locations_;
  std::vector<fi::RunConfig> grid_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
  u64 runs_ = 0;
  u64 all_outcomes_[6] = {0, 0, 0, 0, 0, 0};
  std::string log_;
  Tally tally_;
};

}  // namespace

const WorkloadSpec kFiCampaign{
    [](u64 seed, Tracer& t) -> std::unique_ptr<BenchWorkload> {
      return std::make_unique<FiCampaign>(seed, t);
    },
    kGridCells, 95.0};

}  // namespace perfbench
