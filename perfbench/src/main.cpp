// perfbench: the host-cost benchmark binary.
//
//   perfbench --workload <syscall_storm|supervised_fleet|fi_campaign>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--witness-file <path>] [--spans-out <path>]
//   perfbench --workload <name> --seed <n> --witness-only
//
// Sets the workload up kSetups times (construction, boot, monitor attach
// and a fixed warm-up), then runs whole rounds of ops, each on a fresh
// instance, until `--seconds` of host time have passed: one thread, no
// file I/O. Prints a summary and, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics
// when --trace 1. --witness-only sets up once, runs one round and prints
// the witness line (used to regenerate the reference).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

// Set-ups per run. setup_s is the median of all but the first, which pays
// for cold caches and first-touch page faults, together with the rebuilds
// between rounds, which are the same work.
constexpr int kSetups = 7;
constexpr std::size_t kMaxSpans = 200'000;
// The benchmark has this many input sets, each with a reference witness;
// seed n runs input set n mod kInputSets.
constexpr u64 kInputSets = 128;

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool witness_only = false;
  std::string witness_file;
  std::string spans_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--witness-file <path>] [--spans-out <path>]"
               " [--witness-only]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--witness-only") {
      a.witness_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--witness-file") {
      a.witness_file = v;
    } else if (k == "--spans-out") {
      a.spans_out = v;
    } else {
      usage("unknown argument " + k);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

/// Linear-interpolation percentile of sorted samples.
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return percentile(v, 50.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// The reference witness for `seed`, or "" when the file has none.
std::string reference_witness(const std::string& path, u64 seed) {
  std::ifstream in(path);
  const std::string key = std::to_string(seed) + " ";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line.substr(key.size());
  }
  return "";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

// Per-layer metrics, in the order BENCHMARK.json lists them. Times are
// host microseconds per op; counts are per op unless the unit says
// otherwise.
constexpr MetricDef kLayerMetrics[] = {
    {"op.total_us", "us"},
    {"hv.machine.self_us", "us"},
    {"os.kernel.calls", "count/op"},
    {"os.kernel.self_us", "us"},
    {"os.kernel.task_table", "count"},
    {"os.kernel.live_tasks", "count"},
    {"hav.exits", "count/op"},
    {"hv.hypervisor.self_us", "us"},
    {"core.events", "count/op"},
    {"core.events_per_exit", "ratio"},
    {"core.forward.self_us", "us"},
    {"auditors.hrkd.events", "count/op"},
    {"auditors.hrkd.busy_us", "us"},
    {"auditors.hrkd.timer_calls", "count/op"},
    {"auditors.hrkd.timer_us", "us"},
    {"auditors.ht_ninja.events", "count/op"},
    {"auditors.ht_ninja.busy_us", "us"},
    {"auditors.ht_ninja.timer_calls", "count/op"},
    {"auditors.ht_ninja.timer_us", "us"},
    {"auditors.goshd.events", "count/op"},
    {"auditors.goshd.busy_us", "us"},
    {"auditors.goshd.timer_calls", "count/op"},
    {"auditors.goshd.timer_us", "us"},
    {"journal.appends", "count/op"},
    {"journal.append_bytes", "B/op"},
    {"journal.append_us", "us"},
    {"journal.reads", "count/op"},
    {"journal.read_bytes", "B/op"},
    {"journal.read_us", "us"},
    {"journal.records", "count/op"},
    {"journal.replays", "count/op"},
    {"telemetry.spans", "count/op"},
    {"telemetry.spans_dropped", "count/op"},
    {"telemetry.stream_bytes", "B/op"},
    {"telemetry.capture_us", "us"},
    {"telemetry.slo_us", "us"},
    {"recovery.tick_us", "us"},
    {"recovery.remediations", "count/op"},
    {"recovery.checkpoint_bytes", "B/op"},
    {"fi.activated", "count/op"},
    {"fi.outcome.not_activated", "count/op"},
    {"fi.outcome.not_manifested", "count/op"},
    {"fi.outcome.not_detected", "count/op"},
    {"fi.outcome.partial_hang", "count/op"},
    {"fi.outcome.full_hang", "count/op"},
    {"fi.outcome.recovered", "count/op"},
};

// Which metric each layer's self time feeds.
constexpr std::pair<Layer, const char*> kLayerTimes[] = {
    {Layer::kOp, "hv.machine.self_us"},
    {Layer::kKernel, "os.kernel.self_us"},
    {Layer::kHypervisor, "hv.hypervisor.self_us"},
    {Layer::kForward, "core.forward.self_us"},
    {Layer::kHrkdBusy, "auditors.hrkd.busy_us"},
    {Layer::kHrkdTimer, "auditors.hrkd.timer_us"},
    {Layer::kNinjaBusy, "auditors.ht_ninja.busy_us"},
    {Layer::kNinjaTimer, "auditors.ht_ninja.timer_us"},
    {Layer::kGoshdBusy, "auditors.goshd.busy_us"},
    {Layer::kGoshdTimer, "auditors.goshd.timer_us"},
    {Layer::kJournalAppend, "journal.append_us"},
    {Layer::kJournalRead, "journal.read_us"},
    {Layer::kTelemetryCapture, "telemetry.capture_us"},
    {Layer::kTelemetrySlo, "telemetry.slo_us"},
    {Layer::kRecoveryTick, "recovery.tick_us"},
};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int run(const Args& args) {
  const WorkloadSpec* spec = find_workload(args.workload);
  if (spec == nullptr) usage("unknown workload " + args.workload);
  // Pin glibc's allocator to keep freed memory in the process. By default
  // the mmap threshold adapts to the allocation history and the heap top is
  // trimmed, so whether a freed 8-16 MiB guest image or checkpoint is
  // reused or faulted in afresh depends on the heap layout: a few hundred
  // bytes allocated earlier moved fi_campaign's median op time by 60%.
  // Pinned, every run pays the same zeroing and copying, and no page-fault
  // lottery.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  Tracer tracer(args.trace, kMaxSpans);
  const int setups = args.witness_only ? 1 : kSetups;
  const u64 input = args.seed % kInputSets;

  // Set-up: construction, boot, monitor attach and warm-up, several times;
  // the last instance runs the first round. Every instance must reach the
  // same simulated state.
  std::unique_ptr<BenchWorkload> w;
  std::vector<double> setup_s;
  std::string witness;
  std::vector<std::string> failures;
  for (int i = 0; i < setups; ++i) {
    w.reset();
    const i64 t0 = now_ns();
    w = spec->make(input, tracer);
    w->warm_up();
    const i64 t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
    const std::string wit = w->witness();
    if (i == 0) {
      witness = wit;
    } else if (wit != witness) {
      failures.push_back("set-up " + std::to_string(i) +
                         " reached a different simulated state");
    }
  }
  if (tracer.depth() != 0) failures.push_back("unbalanced spans after set-up");

  // Timed phase: whole rounds until the deadline. The instance of every
  // round after the first is built and warmed up between rounds, outside
  // the op times and untraced; each rebuild is one more set-up sample.
  tracer.start_timed();
  std::vector<double> op_ms;
  op_ms.reserve(1 << 16);
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> failed_ops;
  std::vector<double> round_busy_s;  // host time inside each round's ops
  i64 round_start_busy_ns = 0;
  LayerValues layers;
  std::string round_witness;
  int rounds = 0;
  const i64 start = now_ns();
  const i64 deadline = start + static_cast<i64>(args.seconds * 1e9);
  // A round that overruns the deadline is finished, within a hard limit.
  constexpr i64 kRoundGraceNs = 60'000'000'000;
  const i64 hard_deadline = deadline + kRoundGraceNs;
  i64 end = start;
  i64 busy_ns = 0;  // host time inside ops
  bool stop = false;
  while (!stop) {
    w->start_round();
    for (std::size_t k = 0; k < spec->round_ops && !stop; ++k) {
      ++attempted;
      tracer.set_op(static_cast<u32>(attempted));
      const i64 t0 = now_ns();
      try {
        Scope s(tracer, Layer::kOp);
        w->op();
      } catch (const std::exception& e) {
        ++failed;
        failures.push_back(std::string("op threw: ") + e.what());
        stop = true;
        break;
      }
      end = now_ns();
      op_ms.push_back(static_cast<double>(end - t0) * 1e-6);
      busy_ns += end - t0;
      if (end >= hard_deadline && !args.witness_only) {
        failures.push_back("a round did not finish within 60 s of the deadline");
        stop = true;
      }
    }
    if (stop) break;
    tracer.suspend(true);
    w->end_round(failures, attempted, failed, failed_ops);
    const std::string wit = w->witness();
    if (rounds == 0) {
      round_witness = wit;
    } else if (wit != round_witness) {
      failures.push_back("round " + std::to_string(rounds) +
                         " simulated differently from round 0:\n  round 0 " +
                         round_witness + "\n  this    " + wit);
    }
    ++rounds;
    round_busy_s.push_back(static_cast<double>(busy_ns - round_start_busy_ns) *
                           1e-9);
    round_start_busy_ns = busy_ns;
    LayerValues totals;
    w->layer_totals(totals);
    for (const auto& [k, v] : totals) layers[k] += v;
    for (const char* k : kStateMetrics) layers[k] = totals[k];
    stop = args.witness_only || now_ns() >= deadline;
    if (!stop) {
      w.reset();
      try {
        const i64 t0 = now_ns();
        w = spec->make(input, tracer);
        w->warm_up();
        setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        if (w->witness() != witness) {
          failures.push_back("the rebuild after round " +
                             std::to_string(rounds - 1) +
                             " reached a different simulated state");
        }
      } catch (const std::exception& e) {
        failures.push_back(std::string("rebuild between rounds threw: ") +
                           e.what());
        stop = true;
      }
    }
    tracer.suspend(false);
    end = now_ns();
  }
  for (const auto& f : failed_ops) std::cerr << "FAILED OP: " << f << "\n";
  if (tracer.depth() != 0) failures.push_back("unbalanced spans after the run");
  witness += " | " + round_witness;
  if (args.witness_only) {
    for (const auto& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";
    if (!failures.empty()) return 1;
    std::cout << input << " " << witness << "\n";
    return 0;
  }
  std::cout << "witness: " << witness << "\n";
  const std::string ref = args.witness_file.empty()
                              ? ""
                              : reference_witness(args.witness_file, input);
  if (ref.empty()) {
    failures.push_back("no reference witness for input set " +
                       std::to_string(input) + " in '" +
                       args.witness_file + "'");
  } else if (ref != witness) {
    failures.push_back("simulated statistics differ from the reference:\n"
                       "  want " + ref + "\n  got  " + witness);
  }

  const double elapsed_s = static_cast<double>(end - start) * 1e-9;
  const double busy_s = static_cast<double>(busy_ns) * 1e-9;
  const double ops = static_cast<double>(op_ms.size());
  const double per = ops > 0 ? ops : 1.0;
  for (auto& [k, v] : layers) {
    if (std::find_if(std::begin(kStateMetrics), std::end(kStateMetrics),
                     [&k](const char* s) { return k == s; }) ==
        std::end(kStateMetrics)) {
      v /= per;
    }
  }
  layers["core.events_per_exit"] =
      layers["hav.exits"] > 0 ? layers["core.events"] / layers["hav.exits"]
                              : 0.0;

  std::vector<double> sorted = op_ms;
  std::sort(sorted.begin(), sorted.end());
  const double tail_p = spec->tail_percentile;
  const double beyond = ops * (1.0 - tail_p / 100.0);
  if (beyond < 10.0) {
    std::cerr << "perfbench: only " << beyond << " ops beyond p" << tail_p
              << "; the tail is thin\n";
  }

  std::map<std::string, double> e2e;
  e2e["ops_per_s"] = busy_s > 0 ? ops / busy_s : 0.0;
  e2e["op_host_ms_p50"] = percentile(sorted, 50.0);
  e2e["op_host_ms_tail"] = percentile(sorted, tail_p);
  e2e["setup_s"] = median_of({setup_s.begin() + 1, setup_s.end()});
  e2e["peak_rss_mb"] = peak_rss_mib();

  if (args.trace) {
    for (const auto& [layer, name] : kLayerTimes) {
      layers[name] =
          static_cast<double>(tracer.agg(layer).self_ns) / per / 1000.0;
    }
    layers["op.total_us"] =
        static_cast<double>(tracer.agg(Layer::kOp).total_ns) / per / 1000.0;
  }

  // Human-readable summary.
  std::cout << args.workload << " seed=" << args.seed << " input=" << input
            << " ops=" << op_ms.size()
            << " rounds=" << rounds << " elapsed_s=" << elapsed_s << " in_ops_s=" << busy_s
            << " trace=" << args.trace << "\n";
  std::cout << "  round s:";
  for (const double r : round_busy_s) std::cout << " " << r;
  std::cout << "\n";
  std::cout << "  set-up s:";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";
  std::cout << "  op ms by decile:";
  for (int p = 10; p <= 90; p += 10) std::cout << " " << percentile(sorted, p);
  std::cout << "\n";
  for (const auto& [k, v] : e2e) std::cout << "  " << k << " = " << v << "\n";
  if (args.trace) {
    double sum = 0.0;
    for (const auto& [layer, name] : kLayerTimes) sum += layers[name];
    std::cout << "  layer self times sum to " << sum << " us/op of "
              << layers["op.total_us"] << " us/op (p" << tail_p
              << " tail; spans kept " << tracer.spans_kept() << ", dropped "
              << tracer.spans_dropped() << ")\n";
    for (const auto& d : kLayerMetrics) {
      std::cout << "  " << d.name << " = " << layers[d.name] << " " << d.unit
                << "\n";
    }
    if (!args.spans_out.empty() && !tracer.write_csv(args.spans_out)) {
      std::cerr << "perfbench: could not write " << args.spans_out << "\n";
    }
  }
  for (const auto& f : failures) std::cerr << "CHECK FAILED: " << f << "\n";

  std::ostringstream js;
  js << "{\"correct\": " << (failures.empty() ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  const auto put = [&](const std::string& name, double v,
                       const std::string& unit) {
    js << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(v) << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (args.trace) {
    for (const auto& d : kLayerMetrics) put(d.name, layers[d.name], d.unit);
  } else {
    put("ops_per_s", e2e["ops_per_s"], "1/s");
    put("op_host_ms_p50", e2e["op_host_ms_p50"], "ms");
    put("op_host_ms_tail", e2e["op_host_ms_tail"], "ms");
    put("setup_s", e2e["setup_s"], "s");
    put("peak_rss_mb", e2e["peak_rss_mb"], "MiB");
  }
  js << "}}";
  std::cout << js.str() << std::endl;
  return 0;
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  if (name == "syscall_storm") return &kSyscallStorm;
  if (name == "supervised_fleet") return &kSupervisedFleet;
  if (name == "fi_campaign") return &kFiCampaign;
  return nullptr;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
