// Layer timing for the end-to-end benchmark, installed from outside the
// library: a span clock that charges every nanosecond of a repeat to
// exactly one layer, and forwarding wrappers that open a span around each
// call into the system, the trace sink and the admission policy.
//
// Attribution is exclusive. Entering a span charges the time since the last
// boundary to the span that was open, so nested work (a trace event emitted
// from inside an algorithm step, the algorithm stepped from inside the
// fault adapter) is counted once, in the innermost layer. The self times of
// all layers plus the time outside every span add up to the wall time of
// the window between Begin() and End() to the nanosecond.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/churn.h"
#include "sim/engine_multi.h"

namespace perfbench {

using bwalloc::Bandwidth;
using bwalloc::Bits;
using bwalloc::Time;

enum class Layer : std::size_t {
  kUnattributed = 0,  // inside the window, outside every span
  kGenerate,          // traffic generator
  kSparsify,          // SparseMultiTrace::FromDense
  kConstruct,         // system, adapter, admission, churn, auditor set-up
  kEngineSelf,        // RunMultiSessionEvent minus the wrapped calls
  kStep,              // the allocation algorithm's Step/StepSparse
  kLanesSelf,         // the fault adapter minus the algorithm inside it
  kAdmission,         // AdmissionPolicy::Decide/Release
  kLifecycle,         // OnSessionJoin/OnSessionDepart
  kSink,              // TraceSink::Emit (the live auditor)
  kSave,              // SaveState of the system and the admission policy
  kAuditFinish,       // Auditor::Finish
  kOutput,            // ToJson
  kCount
};

class LayerClock {
 public:
  static std::int64_t Now() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  void Begin() {
    begin_ = last_ = Now();
    current_ = Layer::kUnattributed;
  }
  void End() {
    end_ = Now();
    Charge(end_);
  }
  // Both return the boundary's timestamp.
  std::int64_t Enter(Layer layer) {
    const std::int64_t now = Now();
    Charge(now);
    stack_.push_back(current_);
    current_ = layer;
    return now;
  }
  std::int64_t Leave() {
    const std::int64_t now = Now();
    Charge(now);
    current_ = stack_.back();
    stack_.pop_back();
    return now;
  }

  std::int64_t self_ns(Layer layer) const {
    return self_[static_cast<std::size_t>(layer)];
  }
  std::int64_t begin_ns() const { return begin_; }
  std::int64_t wall_ns() const { return end_ - begin_; }

 private:
  void Charge(std::int64_t now) {
    self_[static_cast<std::size_t>(current_)] += now - last_;
    last_ = now;
  }

  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> self_{};
  std::vector<Layer> stack_;
  Layer current_ = Layer::kUnattributed;
  std::int64_t begin_ = 0;
  std::int64_t end_ = 0;
  std::int64_t last_ = 0;
};

// RAII span; a null clock makes it a no-op. When `durations` is given, the
// span's inclusive duration is appended to it on exit.
class Span {
 public:
  Span(LayerClock* clock, Layer layer,
       std::vector<std::int64_t>* durations = nullptr)
      : clock_(clock),
        durations_(durations),
        start_(clock != nullptr ? clock->Enter(layer) : 0) {}
  ~Span() {
    if (clock_ == nullptr) return;
    const std::int64_t end = clock_->Leave();
    if (durations_ != nullptr) durations_->push_back(end - start_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t start() const { return start_; }

 private:
  LayerClock* clock_;
  std::vector<std::int64_t>* durations_;
  std::int64_t start_;
};

// Forwards every MultiSessionSystem call to the owned inner system.
class ForwardingSystem : public bwalloc::MultiSessionSystem {
 public:
  explicit ForwardingSystem(std::unique_ptr<MultiSessionSystem> inner)
      : inner_(std::move(inner)) {}

  void Step(Time now, std::span<const Bits> arrivals) override {
    inner_->Step(now, arrivals);
  }
  const bwalloc::SessionChannels& channels() const override {
    return inner_->channels();
  }
  std::int64_t stages() const override { return inner_->stages(); }
  std::int64_t global_stages() const override {
    return inner_->global_stages();
  }
  Bandwidth DeclaredTotalBandwidth() const override {
    return inner_->DeclaredTotalBandwidth();
  }
  Bandwidth ExtraAllocatedBandwidth() const override {
    return inner_->ExtraAllocatedBandwidth();
  }
  Bits ExtraQueuedBits() const override { return inner_->ExtraQueuedBits(); }
  Bits ExtraDeliveredBits() const override {
    return inner_->ExtraDeliveredBits();
  }
  const bwalloc::DelayHistogram* ExtraDelayHistogram() const override {
    return inner_->ExtraDelayHistogram();
  }
  void SetTracer(const bwalloc::Tracer& tracer) override {
    inner_->SetTracer(tracer);
  }
  void SetTelemetry(bwalloc::telemetry::RuntimeShard* shard) override {
    inner_->SetTelemetry(shard);
  }
  bool SupportsSparseStep() const override {
    return inner_->SupportsSparseStep();
  }
  void StepSparse(Time now,
                  std::span<const bwalloc::SessionArrival> arrivals) override {
    inner_->StepSparse(now, arrivals);
  }
  void PerturbEventWakeupsForTest() override {
    inner_->PerturbEventWakeupsForTest();
  }
  bool SupportsChurn() const override { return inner_->SupportsChurn(); }
  void OnSessionJoin(Time now, std::int64_t session) override {
    inner_->OnSessionJoin(now, session);
  }
  Bits OnSessionDepart(Time now, std::int64_t session) override {
    return inner_->OnSessionDepart(now, session);
  }
  bool SupportsCheckpoint() const override {
    return inner_->SupportsCheckpoint();
  }
  void SaveState(bwalloc::StateWriter& w) const override {
    inner_->SaveState(w);
  }
  void LoadState(bwalloc::StateReader& r) override { inner_->LoadState(r); }

 protected:
  std::unique_ptr<MultiSessionSystem> inner_;
};

// Times the stepping, lifecycle and checkpoint calls of one system layer.
// `step_layer` is kStep around the algorithm and kLanesSelf around the
// fault adapter; only the algorithm wrapper counts lifecycle calls and
// keeps per-step durations, so nested wrappers count each call once.
class TimedSystem final : public ForwardingSystem {
 public:
  TimedSystem(std::unique_ptr<MultiSessionSystem> inner, LayerClock* clock,
              Layer step_layer)
      : ForwardingSystem(std::move(inner)),
        clock_(clock),
        step_layer_(step_layer) {}

  void Step(Time now, std::span<const Bits> arrivals) override {
    Span span(clock_, step_layer_, durations());
    ++step_calls_;
    inner_->Step(now, arrivals);
  }
  void StepSparse(Time now,
                  std::span<const bwalloc::SessionArrival> arrivals) override {
    Span span(clock_, step_layer_, durations());
    ++step_calls_;
    inner_->StepSparse(now, arrivals);
  }
  void OnSessionJoin(Time now, std::int64_t session) override {
    Span span(clock_, Layer::kLifecycle);
    if (algorithm()) ++lifecycle_calls_;
    inner_->OnSessionJoin(now, session);
  }
  Bits OnSessionDepart(Time now, std::int64_t session) override {
    Span span(clock_, Layer::kLifecycle);
    if (algorithm()) ++lifecycle_calls_;
    return inner_->OnSessionDepart(now, session);
  }
  void SaveState(bwalloc::StateWriter& w) const override {
    Span span(clock_, Layer::kSave);
    inner_->SaveState(w);
  }

  std::int64_t step_calls() const { return step_calls_; }
  std::int64_t lifecycle_calls() const { return lifecycle_calls_; }
  const std::vector<std::int64_t>& step_ns() const { return step_ns_; }

 private:
  bool algorithm() const { return step_layer_ == Layer::kStep; }
  std::vector<std::int64_t>* durations() {
    return algorithm() ? &step_ns_ : nullptr;
  }

  LayerClock* clock_;
  Layer step_layer_;
  std::int64_t step_calls_ = 0;
  std::int64_t lifecycle_calls_ = 0;
  std::vector<std::int64_t> step_ns_;
};

// Negative control: removes one bit from the first nonzero arrival it
// forwards. A correct conservation check must catch the lost bit.
class BitDropSystem final : public ForwardingSystem {
 public:
  using ForwardingSystem::ForwardingSystem;

  void Step(Time now, std::span<const Bits> arrivals) override {
    for (std::size_t i = 0; !dropped_ && i < arrivals.size(); ++i) {
      if (arrivals[i] == 0) continue;
      std::vector<Bits> copy(arrivals.begin(), arrivals.end());
      copy[i] -= 1;
      dropped_ = true;
      inner_->Step(now, copy);
      return;
    }
    inner_->Step(now, arrivals);
  }
  void StepSparse(Time now,
                  std::span<const bwalloc::SessionArrival> arrivals) override {
    if (!dropped_ && !arrivals.empty()) {
      std::vector<bwalloc::SessionArrival> copy(arrivals.begin(),
                                                arrivals.end());
      copy.front().bits -= 1;
      dropped_ = true;
      inner_->StepSparse(now, copy);
      return;
    }
    inner_->StepSparse(now, arrivals);
  }

 private:
  bool dropped_ = false;
};

// Times and counts the events reaching the downstream sink.
class TimedSink final : public bwalloc::TraceSink {
 public:
  TimedSink(bwalloc::TraceSink* downstream, LayerClock* clock)
      : downstream_(downstream), clock_(clock) {}

  void Emit(const bwalloc::TraceContext& ctx,
            const bwalloc::TraceEvent& event) override {
    Span span(clock_, Layer::kSink);
    ++events_;
    downstream_->Emit(ctx, event);
  }
  std::int64_t events_written() const override {
    return downstream_->events_written();
  }
  std::int64_t bytes_written() const override {
    return downstream_->bytes_written();
  }

  std::int64_t events() const { return events_; }

 private:
  bwalloc::TraceSink* downstream_;
  LayerClock* clock_;
  std::int64_t events_ = 0;
};

// Times and counts admission decisions. The churn driver serializes the
// policy last in every checkpoint payload, so the writer's size after
// SaveState is the whole payload.
class TimedPolicy final : public bwalloc::AdmissionPolicy {
 public:
  TimedPolicy(bwalloc::AdmissionPolicy& inner, LayerClock* clock)
      : inner_(inner), clock_(clock) {}

  bwalloc::AdmissionVerdict Decide(const bwalloc::SessionSpec& spec,
                                   Time now) override {
    Span span(clock_, Layer::kAdmission);
    ++decisions_;
    return inner_.Decide(spec, now);
  }
  void Release(const bwalloc::SessionSpec& spec, Time now) override {
    Span span(clock_, Layer::kAdmission);
    inner_.Release(spec, now);
  }
  void SaveState(bwalloc::StateWriter& w) const override {
    Span span(clock_, Layer::kSave);
    inner_.SaveState(w);
    payload_bytes_ += static_cast<std::int64_t>(w.bytes().size());
  }
  void LoadState(bwalloc::StateReader& r) override { inner_.LoadState(r); }

  std::int64_t decisions() const { return decisions_; }
  std::int64_t payload_bytes() const { return payload_bytes_; }

 private:
  bwalloc::AdmissionPolicy& inner_;
  LayerClock* clock_;
  std::int64_t decisions_ = 0;
  mutable std::int64_t payload_bytes_ = 0;
};

}  // namespace perfbench
