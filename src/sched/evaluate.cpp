#include "sched/evaluate.hpp"

#include <algorithm>
#include <limits>

#include "support/contracts.hpp"
#include "support/error.hpp"

namespace gridcast::sched {

namespace {
constexpr Time kNotYet = std::numeric_limits<Time>::infinity();
}

void EvalState::reset(const Instance& inst) {
  inst_ = &inst;
  ready_.assign(inst.clusters(), kNotYet);
  nic_free_.assign(inst.clusters(), 0.0);
  last_busy_.assign(inst.clusters(), 0.0);
  log_.clear();
  log_.reserve(inst.clusters() - 1);  // one transfer per non-root
  ready_[inst.root()] = 0.0;
}

Time EvalState::send_start(ClusterId i) const {
  GRIDCAST_ASSERT(i < ready_.size(), "cluster id out of range");
  GRIDCAST_ASSERT(ready_[i] != kNotYet, "sender does not hold the message");
  return std::max(ready_[i], nic_free_[i]);
}

bool EvalState::has_message(ClusterId i) const {
  GRIDCAST_ASSERT(i < ready_.size(), "cluster id out of range");
  return ready_[i] != kNotYet;
}

Time EvalState::arrival_if(ClusterId s, ClusterId r) const {
  return send_start(s) + inst_->transfer(s, r);
}

Transfer EvalState::apply(ClusterId s, ClusterId r) {
  GRIDCAST_ASSERT(s != r, "self transfer");
  GRIDCAST_ASSERT(has_message(s), "sender does not hold the message");
  GRIDCAST_ASSERT(!has_message(r), "receiver already holds the message");

  Transfer t;
  t.sender = s;
  t.receiver = r;
  t.start = send_start(s);
  t.arrival = t.start + inst_->transfer(s, r);

  nic_free_[s] = t.start + inst_->g(s, r);
  last_busy_[s] = std::max(last_busy_[s], nic_free_[s]);
  ready_[r] = t.arrival;
  last_busy_[r] = std::max(last_busy_[r], t.arrival);
  log_.push_back(t);
  return t;
}

Schedule EvalState::finish(CompletionModel model) const {
  Schedule s;
  s.root = inst_->root();
  s.transfers = log_;
  s.cluster_finish.resize(inst_->clusters());
  for (ClusterId c = 0; c < inst_->clusters(); ++c) {
    // A cluster that never received does not finish; callers only invoke
    // finish() on complete orders (evaluate_order enforces coverage), but
    // partial finishes are allowed for optimal-search lower bounds.
    if (ready_[c] == kNotYet) {
      s.cluster_finish[c] = kNotYet;
      continue;
    }
    const Time base =
        model == CompletionModel::kEager ? ready_[c] : last_busy_[c];
    s.cluster_finish[c] = base + inst_->T(c);
  }
  s.makespan =
      *std::max_element(s.cluster_finish.begin(), s.cluster_finish.end());
  return s;
}

Schedule evaluate_order(const Instance& inst, std::span<const SendPair> order,
                        CompletionModel model) {
  GRIDCAST_ASSERT(order.size() == inst.clusters() - 1,
                  "order must contain exactly one transfer per non-root");
  // Hot path of every heuristic and Monte-Carlo iteration: keep the state's
  // vectors alive per thread instead of reallocating them per evaluation.
  thread_local EvalState st;
  st.reset(inst);
  for (const auto& [s, r] : order) st.apply(s, r);
  const Schedule sched = st.finish(model);
  // Well-formedness is an O(clusters) walk over the whole schedule — the
  // expensive contract tier.  apply() already ASSERTs the per-transfer
  // preconditions in every build; the full structural re-check runs on
  // the Debug/sanitizer lanes, off the Monte-Carlo hot path in release.
  GRIDCAST_DCHECK(describe_invalid(sched, inst.clusters()).empty(),
                  "evaluator produced invalid schedule: " +
                      describe_invalid(sched, inst.clusters()));
  return sched;
}

}  // namespace gridcast::sched
