// perfbench_run — one repeat of one benchmark workload, on one thread.
//
//   perfbench_run --workload pareto-32k --seed 1 [--timed]
//                 [--plant-bit-drop] [--tmp DIR]
//
// Follows the steps `bwsim multi --engine event` takes, through the
// library's public calls: generate the input, build the sparse trace,
// construct the phased system (plus the fault adapter, admission control,
// churn driver and auditor where the workload has them), run
// RunMultiSessionEvent, finish the audit and render the result with
// ToJson. It then checks the outputs against properties and against
// figures it computes itself, and prints one JSON line of exact integers:
// nanosecond timings, the simulated statistics and, with --timed, the
// per-layer breakdown (perfbench/layers.h). perfbench/run.py turns repeats
// of this program into the benchmark's metrics.
//
// --plant-bit-drop wraps the algorithm in a system that loses one arriving
// bit: the negative control for the conservation check. --tmp names the
// directory the checkpointing workload writes into.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/json.h"
#include "core/admission.h"
#include "core/multi_phased.h"
#include "layers.h"
#include "net/multi_faults.h"
#include "obs/audit/auditor.h"
#include "obs/telemetry/shard.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"
#include "state/checkpoint.h"
#include "traffic/arrivals.h"
#include "traffic/sparse_bursts.h"
#include "traffic/workload_suite.h"
#include "util/json_writer.h"

namespace perfbench {
namespace {

using namespace bwalloc;

enum class InputKind { kHotspot, kPareto, kChurn };

// Workload definitions. Why each exists is recorded in perfbench/README.md.
struct Workload {
  const char* name;
  InputKind input;
  std::int64_t k;  // fixed populations; churn takes its count from the plan
  Bits bo;
  Time d_o;
  Time horizon;
  std::int64_t hops = 0;  // > 0 puts the system behind the fault adapter
  double loss = 0.0;      // per-hop signalling loss
  bool audit = false;
  Time checkpoint_every = 0;
};

constexpr Workload kWorkloads[] = {
    {"hotspot-faulted-4k", InputKind::kHotspot, 4096, 4096, 8, 3000, 2, 0.05},
    {"pareto-32k", InputKind::kPareto, 32768, 16 * 32768, 16, 6000},
    {"churn-audited", InputKind::kChurn, 0, 64, 8, 4000, 0, 0.0, true, 500},
};

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  bool timed = false;
  bool plant_bit_drop = false;
  std::string tmp = ".";
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      const std::string name = value();
      for (const Workload& w : kWorkloads) {
        if (name == w.name) o.workload = &w;
      }
      if (o.workload == nullptr) {
        throw std::invalid_argument("unknown workload: " + name);
      }
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--tmp") {
      o.tmp = value();
    } else if (arg == "--timed") {
      o.timed = true;
    } else if (arg == "--plant-bit-drop") {
      o.plant_bit_drop = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (o.workload == nullptr) throw std::invalid_argument("--workload missing");
  return o;
}

std::uint64_t Fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

std::int64_t Percentile(std::vector<std::int64_t> v, double q) {
  if (v.empty()) return 0;
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// Everything one repeat produces; written out as JSON by Report().
struct Outcome {
  std::vector<std::string> errors;
  std::int64_t wall_ns = 0;
  std::int64_t setup_ns = 0;
  std::int64_t engine_ns = 0;
  std::vector<std::pair<std::string, std::int64_t>> stats;
  std::vector<std::pair<std::string, std::int64_t>> layers;
  std::string result_digest;
  std::string audit_digest;
};

void Check(Outcome& out, bool ok, const std::string& what) {
  if (!ok) out.errors.push_back(what);
}

Outcome RunRepeat(const Options& o) {
  const Workload& w = *o.workload;
  LayerClock clock;
  LayerClock* const timer = o.timed ? &clock : nullptr;
  Outcome out;

  std::vector<std::vector<Bits>> dense;
  SparseMultiTrace sparse;
  ChurnPlan plan;
  const bool churned = w.input == InputKind::kChurn;

  std::unique_ptr<MultiSessionSystem> sys;
  TimedSystem* algo_timer = nullptr;
  RobustMultiSessionAdapter* robust = nullptr;
  std::optional<AdmissionController> admission;
  std::optional<TimedPolicy> timed_policy;
  std::optional<ChurnDriver> churn;
  std::optional<Auditor> auditor;
  std::optional<AuditingSink> audit_sink;
  std::optional<TimedSink> timed_sink;
  telemetry::RuntimeShard publish_shard;
  EventEngineStats engine_stats;
  MultiEngineOptions opt;
  opt.event_stats = &engine_stats;
  Time delay_slack = 0;
  MultiRunResult r;
  std::string result_json;
  std::vector<std::int64_t> engine_span;

  clock.Begin();
  {
    Span span(&clock, Layer::kGenerate);
    switch (w.input) {
      case InputKind::kHotspot:
        dense = MultiSessionWorkload(MultiWorkloadKind::kRotatingHotspot, w.k,
                                     w.bo, w.d_o, w.horizon, o.seed);
        break;
      case InputKind::kPareto: {
        SparseBurstParams bp;
        bp.sessions = w.k;
        bp.horizon = w.horizon;
        bp.bursts_per_slot = static_cast<double>(w.k) / 256.0;
        bp.burst_scale = 32;
        bp.tail_cap = 8;
        bp.seed = o.seed;
        sparse = SparseBurstTrace(bp);
        break;
      }
      case InputKind::kChurn: {
        ArrivalParams ap;
        ap.horizon = w.horizon;
        ap.offline_bandwidth = w.bo;
        ap.offline_delay = w.d_o;
        ap.arrival_rate = 1.0;
        ap.mean_hold = 400;
        ap.max_book_ahead = 16;
        ap.seed = o.seed;
        plan = GenerateArrivals(ArrivalProcess::kMmpp, ap);
        dense = plan.MaterializeTraces();
        break;
      }
    }
  }
  {
    Span span(&clock, Layer::kSparsify);
    if (!dense.empty()) sparse = SparseMultiTrace::FromDense(dense);
  }
  const std::int64_t sessions = sparse.sessions;
  {
    Span span(&clock, Layer::kConstruct);
    MultiSessionParams p;
    p.sessions = sessions;
    p.offline_bandwidth = w.bo;
    p.offline_delay = w.d_o;
    sys = std::make_unique<PhasedMulti>(p);
    if (o.plant_bit_drop) sys = std::make_unique<BitDropSystem>(std::move(sys));
    if (timer != nullptr) {
      auto wrapped = std::make_unique<TimedSystem>(std::move(sys), timer,
                                                   Layer::kStep);
      algo_timer = wrapped.get();
      sys = std::move(wrapped);
    }
    opt.drain_slots = 8 * w.d_o + 64 * w.hops;
    if (w.hops > 0) {
      // The fault seed stays at bwsim's default (0) rather than following
      // the workload seed: with it, the worst delay of a run ranged over
      // 26-41 slots across ten workload seeds, against 26-28 when only
      // the traffic varies.
      FaultPlan faults;
      faults.loss_rate = w.loss;
      faults.seed = 0;
      RobustMultiOptions mopts;
      mopts.fallback_bandwidth = 4 * w.bo;
      auto adapter = std::make_unique<RobustMultiSessionAdapter>(
          std::move(sys), NetworkPath::Uniform(w.hops, 1, 1.0), faults, mopts);
      robust = adapter.get();
      sys = std::move(adapter);
      if (timer != nullptr) {
        sys = std::make_unique<TimedSystem>(std::move(sys), timer,
                                            Layer::kLanesSelf);
      }
      // The slacks `bwsim multi --audit` applies to a faulted plane.
      delay_slack = 2 * w.hops + 2 + 8 * w.d_o + 64 * w.hops;
    }
    if (churned) {
      AdmissionConfig ac;
      ac.policy = AdmissionPolicyKind::kLedger;
      ac.capacity = w.bo;
      ac.horizon = w.horizon;
      ac.Validate();
      admission.emplace(ac);
      AdmissionPolicy* policy = &*admission;
      if (timer != nullptr) policy = &timed_policy.emplace(*admission, timer);
      churn.emplace(plan, *policy, 0);
      opt.churn = &*churn;
    }
    if (w.audit) {
      auditor.emplace(MultiAuditConfig(sessions, w.bo, w.d_o, true));
      audit_sink.emplace(&*auditor);
      TraceSink* dest = &*audit_sink;
      if (timer != nullptr) dest = &timed_sink.emplace(dest, timer);
      opt.tracer = Tracer(dest, kAllEvents, {"multi", 0});
    }
    if (w.checkpoint_every > 0) {
      opt.checkpoint.every = w.checkpoint_every;
      opt.checkpoint.dir = o.tmp;
      opt.checkpoint.stem = "multi";
      if (timer != nullptr) opt.checkpoint.telemetry = &publish_shard;
    }
  }
  {
    Span span(&clock, Layer::kEngineSelf, &engine_span);
    out.setup_ns = span.start() - clock.begin_ns();
    r = RunMultiSessionEvent(sparse, *sys, opt);
  }
  if (robust != nullptr) {
    r.faults = robust->fault_stats();
    r.per_session_faults = robust->per_session_fault_stats();
  }
  {
    Span span(&clock, Layer::kAuditFinish);
    if (auditor.has_value()) auditor->Finish();
  }
  {
    Span span(&clock, Layer::kOutput);
    result_json = ToJson(r);
  }
  clock.End();
  out.wall_ns = clock.wall_ns();
  out.engine_ns = engine_span.front();

  // --- correctness checks, outside the measured window -------------------
  Bits input_bits = 0;
  for (const SessionArrival& a : sparse.arrivals) input_bits += a.bits;
  if (churned) {
    Check(out, r.total_arrivals <= plan.OfferedBits(),
          "arrivals exceed the plan's offered bits");
    Check(out,
          r.churn.admitted + r.churn.rejected == r.churn.offered &&
              r.churn.offered == static_cast<std::int64_t>(plan.specs.size()),
          "churn bookkeeping: admitted + rejected != offered != plan size");
  } else {
    Check(out, r.total_arrivals == input_bits,
          "arrivals " + std::to_string(r.total_arrivals) +
              " != input bit total " + std::to_string(input_bits));
  }
  const Bits expected = churned ? r.total_arrivals : input_bits;
  Check(out,
        r.total_delivered + r.final_queue + r.churn.dropped_bits == expected,
        "conservation: delivered " + std::to_string(r.total_delivered) +
            " + queued " + std::to_string(r.final_queue) + " + dropped " +
            std::to_string(r.churn.dropped_bits) + " != arrivals " +
            std::to_string(expected));
  const Time delay_bound = 2 * w.d_o + delay_slack;
  Check(out, r.delay.max_delay() <= delay_bound,
        "max delay " + std::to_string(r.delay.max_delay()) + " > bound " +
            std::to_string(delay_bound));
  Check(out, r.peak_total_allocation <= Bandwidth::FromBitsPerSlot(4 * w.bo),
        "peak total allocation " + r.peak_total_allocation.ToString() +
            " > 4 B_O");
  Check(out,
        r.total_delivered > 0 &&
            static_cast<Int128>(r.total_delivered) * Bandwidth::kOne <=
                r.total_allocated_raw,
        "delivered bits not within (0, allocated bits]");
  if (auditor.has_value()) {
    Check(out, auditor->ok(),
          "audit: " + std::to_string(auditor->total_violations()) +
              " violations");
  }
  const std::int64_t served = churned ? r.churn.admitted : r.sessions;
  Check(out, served > 0, "no session served");

  out.result_digest = Hex(Fnv1a(result_json));
  if (auditor.has_value()) out.audit_digest = Hex(Fnv1a(auditor->ReportJson()));
  const auto add = [&out](const char* name, std::int64_t v) {
    out.stats.emplace_back(name, v);
  };
  add("slots", r.horizon);
  add("sessions", r.sessions);
  add("sessions_served", served);
  add("input_bits", input_bits);
  add("arrivals", r.total_arrivals);
  add("delivered_bits", r.total_delivered);
  add("final_queue", r.final_queue);
  add("max_delay_slots", r.delay.max_delay());
  add("local_changes", r.local_changes);
  add("global_changes", r.global_changes);
  add("stages", r.stages);
  add("total_allocated_raw", r.total_allocated_raw);
  add("peak_total_allocation_raw", r.peak_total_allocation.raw());
  add("dense_session_slots",
      static_cast<std::int64_t>(dense.size()) * sparse.horizon);
  add("arrival_records", static_cast<std::int64_t>(sparse.arrivals.size()));
  add("touched_session_slots", engine_stats.touched_session_slots);
  add("arrival_events", engine_stats.arrival_events);
  add("dense_fallback", engine_stats.dense_fallback ? 1 : 0);
  add("signal_requests", r.faults.requests);
  add("signal_losses", r.faults.losses);
  add("retries", r.faults.retries);
  add("timeouts", r.faults.timeouts);
  add("fallbacks", r.faults.fallbacks);
  add("churn_offered", r.churn.offered);
  add("churn_admitted", r.churn.admitted);
  add("churn_rejected", r.churn.rejected);
  add("churn_departed", r.churn.departed);
  add("churn_dropped_bits", r.churn.dropped_bits);
  add("audit_events", auditor.has_value() ? auditor->events() : 0);
  add("audit_violations",
      auditor.has_value() ? auditor->total_violations() : 0);

  if (timer != nullptr) {
    const auto layer = [&out, &clock](const char* name, Layer l) {
      out.layers.emplace_back(name, clock.self_ns(l));
    };
    const auto count = [&out](const char* name, std::int64_t v) {
      out.layers.emplace_back(name, v);
    };
    layer("traffic.generate_ns", Layer::kGenerate);
    layer("traffic.sparsify_ns", Layer::kSparsify);
    layer("core.construct_ns", Layer::kConstruct);
    layer("core.step_ns", Layer::kStep);
    layer("core.admission_ns", Layer::kAdmission);
    layer("core.lifecycle_ns", Layer::kLifecycle);
    layer("net.lanes_self_ns", Layer::kLanesSelf);
    layer("sim.engine_self_ns", Layer::kEngineSelf);
    layer("obs.sink_ns", Layer::kSink);
    layer("obs.audit_finish_ns", Layer::kAuditFinish);
    layer("state.save_ns", Layer::kSave);
    layer("analysis.output_ns", Layer::kOutput);
    layer("unattributed_ns", Layer::kUnattributed);
    count("sim.engine_ns", out.engine_ns);
    count("state.publish_ns",
          publish_shard.histo(telemetry::Histo::kCheckpointPublishNs).sum);
    count("state.checkpoints",
          publish_shard.counter(telemetry::Counter::kCheckpoints));
    // Payload plus the fixed envelope (magic, version, length, CRC).
    const std::int64_t envelope = 8 + 4 + 8 + 4;
    count("state.checkpoint_bytes",
          timed_policy.has_value()
              ? timed_policy->payload_bytes() +
                    envelope *
                        publish_shard.counter(telemetry::Counter::kCheckpoints)
              : 0);
    count("core.step_calls", algo_timer->step_calls());
    count("core.step_p50_ns", Percentile(algo_timer->step_ns(), 0.50));
    count("core.step_p99_ns", Percentile(algo_timer->step_ns(), 0.99));
    count("core.lifecycle_calls", algo_timer->lifecycle_calls());
    count("core.admission_decisions",
          timed_policy.has_value() ? timed_policy->decisions() : 0);
    count("obs.events", timed_sink.has_value() ? timed_sink->events() : 0);
    Check(out, algo_timer->step_calls() == r.horizon,
          "algorithm stepped " + std::to_string(algo_timer->step_calls()) +
              " times over " + std::to_string(r.horizon) + " slots");
    if (auditor.has_value()) {
      Check(out, timed_sink->events() == auditor->events(),
            "timed sink and auditor saw different event counts");
    }
  }
  return out;
}

void Report(const Options& o, const Outcome& out, std::int64_t peak_rss_kb) {
  JsonWriter j;
  j.BeginObject();
  j.Key("workload");
  j.Value(o.workload->name);
  j.Key("seed");
  j.Value(static_cast<std::int64_t>(o.seed));
  j.Key("timed");
  j.Value(o.timed);
  j.Key("errors");
  j.BeginArray();
  for (const std::string& e : out.errors) j.Value(e);
  j.EndArray();
  j.Key("wall_ns");
  j.Value(out.wall_ns);
  j.Key("setup_ns");
  j.Value(out.setup_ns);
  j.Key("engine_ns");
  j.Value(out.engine_ns);
  j.Key("peak_rss_kb");
  j.Value(peak_rss_kb);
  j.Key("result_digest");
  j.Value(out.result_digest);
  j.Key("audit_digest");
  j.Value(out.audit_digest);
  j.Key("stats");
  j.BeginObject();
  for (const auto& [name, v] : out.stats) {
    j.Key(name);
    j.Value(v);
  }
  j.EndObject();
  j.Key("layers");
  j.BeginObject();
  for (const auto& [name, v] : out.layers) {
    j.Key(name);
    j.Value(v);
  }
  j.EndObject();
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    o = perfbench::ParseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_run: %s\n", e.what());
    return 2;
  }
  perfbench::Outcome out;
  try {
    out = perfbench::RunRepeat(o);
  } catch (const std::exception& e) {
    out = perfbench::Outcome{};
    out.errors.push_back(std::string("exception: ") + e.what());
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  perfbench::Report(o, out, usage.ru_maxrss);
  return 0;
}
