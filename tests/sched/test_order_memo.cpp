#include "sched/order_memo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "collective/backends.hpp"
#include "exp/param_ranges.hpp"
#include "exp/race_cli.hpp"
#include "sched/auto_scheduler.hpp"
#include "sched/heuristics.hpp"
#include "sched/mixed.hpp"
#include "sched/registry.hpp"
#include "support/contracts.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace gridcast::sched {
namespace {

/// Derivations per entry name since the last reset, summed over every
/// `Counting` object of that name.
std::map<std::string, std::size_t>& derivations() {
  static std::map<std::string, std::size_t> counts;
  return counts;
}

/// Forwards to a registry entry under its name and options, so it shares
/// the entry's memo key, and counts each derivation.
class Counting final : public SchedulerEntry {
 public:
  explicit Counting(SchedulerEntryPtr inner)
      : SchedulerEntry(inner->options()), inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::string describe_options() const override {
    return inner_->describe_options();
  }
  [[nodiscard]] bool can_schedule(
      const SchedulerRuntimeInfo& info) const override {
    return inner_->can_schedule(info);
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override {
    ++derivations()[std::string(inner_->name())];
    return inner_->order(info);
  }
  using SchedulerEntry::order;

 private:
  SchedulerEntryPtr inner_;
};

SchedulerEntryPtr counting(std::string_view name, HeuristicOptions opts = {}) {
  return std::make_shared<const Counting>(registry().make(name, opts));
}

/// Every builtin non-composite entry, counting.  Each make() builds a new
/// object, so auto's candidates are not the race's entries: only their
/// keys are shared.
void add_counting_builtins(SchedulerRegistry& reg) {
  for (const auto& name : registry().names()) {
    if (registry().make(name)->is_composite()) continue;
    reg.add(name, [name](const HeuristicOptions& o) {
      return counting(name, o);
    });
  }
}

/// Mixed resolves its delegates through the global registry by name, so
/// counting delegates are registered there, under names of their own.
const SchedulerEntry& counting_mixed() {
  static const std::shared_ptr<const MixedStrategy> mixed = [] {
    for (const char* name : {"ECEF-LA", "ECEF-LAT"})
      registry().add(std::string("Counted-") + name,
                     [name](const HeuristicOptions& o) {
                       return counting(name, o);
                     });
    return std::make_shared<const MixedStrategy>(10, HeuristicOptions{},
                                                 "Counted-ECEF-LA",
                                                 "Counted-ECEF-LAT");
  }();
  return *mixed;
}

Instance table2_draw(std::size_t clusters, std::uint64_t it) {
  Rng rng = Rng::stream(exp::race_instance_seed(42, clusters), it);
  return exp::sample_instance(exp::ParamRanges::paper(), clusters, rng);
}

// ------------------------------------------------ derivations per draw

// The race loop's shape: every competitor through the plogp backend on
// one info per draw.  The field holds auto and Mixed beside the paper's
// seven, whose orders they need too; auto is raced first and last.
TEST(OrderMemo, EachEntryIsDerivedOncePerDrawBesideItsComposites) {
  SchedulerRegistry reg;
  add_counting_builtins(reg);
  const AutoScheduler autos(reg);
  std::vector<SchedulerEntryPtr> paper;
  for (const auto& s : paper_heuristics()) paper.push_back(reg.make(s.name()));
  const collective::PlogpBackend plogp;
  const collective::Backend& backend = plogp;

  for (const bool auto_first : {false, true}) {
    std::vector<const SchedulerEntry*> field;
    if (auto_first) field.push_back(&autos);
    for (const auto& e : paper) field.push_back(e.get());
    field.push_back(&counting_mixed());
    if (!auto_first) field.push_back(&autos);

    OrderMemo memo;
    for (const std::size_t n : {5u, 8u, 20u, 50u}) {
      const Instance inst = table2_draw(n, 3);
      const SchedulerRuntimeInfo plain(inst);
      // Without a memo, auto derives each candidate it accepts again and
      // Mixed its delegate: what every caller paid before the memo.
      std::map<std::string, std::size_t> want;
      for (const auto& e : paper) want[std::string(e->name())] = 2;
      ++want[n <= 10 ? "ECEF-LA" : "ECEF-LAT"];
      for (const char* extra :
           {"ECEF-AvgEdge", "ECEF-AvgMove", "LAN-Flat", "Star-WAN"})
        if (registry().make(extra)->can_schedule(plain)) want[extra] = 1;

      derivations().clear();
      std::vector<Time> fresh;
      for (const SchedulerEntry* e : field)
        fresh.push_back(backend.bcast(*e, plain).completion);
      EXPECT_EQ(derivations(), want) << "without a memo, n=" << n;

      // With one, every entry is derived once however many ask for it —
      // unless GRIDCAST_DCHECK re-derives each hit to check it, which
      // brings the count back to the memo-less one.
      if (!GRIDCAST_DCHECKS_ENABLED)
        for (auto& [name, count] : want) count = 1;
      derivations().clear();
      memo.clear();
      const SchedulerRuntimeInfo info(inst, 0, CompletionModel::kEager, &memo);
      for (std::size_t s = 0; s < field.size(); ++s)
        EXPECT_EQ(backend.bcast(*field[s], info).completion, fresh[s])
            << field[s]->name() << " at n=" << n;
      EXPECT_EQ(derivations(), want) << "with a memo, n=" << n;
      // Plus auto's and Mixed's own orders, which nothing counts.
      EXPECT_EQ(memo.size(), want.size() + 2) << "n=" << n;
      EXPECT_EQ(memo.evaluations(), memo.size()) << "n=" << n;
    }
  }
}

// --------------------------------------------------------- the key

TEST(OrderMemo, OptionsThatChangeTheOrderGetTheirOwnSlots) {
  HeuristicOptions gap_latency;
  gap_latency.fef_weight = FefWeight::kGapPlusLatency;
  const std::vector<SchedulerEntryPtr> entries = {
      registry().make("FEF"), registry().make("FEF", gap_latency),
      registry().make("ECEF"), registry().make("ECEF-LA")};

  // A draw where both pairs disagree, so a shared slot would show.
  std::uint64_t it = 0;
  Instance inst = table2_draw(12, it);
  const auto fresh = [&](const SchedulerEntryPtr& e) {
    return e->order(SchedulerRuntimeInfo(inst));
  };
  while (fresh(entries[0]) == fresh(entries[1]) ||
         fresh(entries[2]) == fresh(entries[3])) {
    ASSERT_LT(++it, 200u) << "no draw separates the variants";
    inst = table2_draw(12, it);
  }

  OrderMemo memo;
  const SchedulerRuntimeInfo info(inst, 0, CompletionModel::kEager, &memo);
  for (const auto& e : entries) EXPECT_EQ(order_of(*e, info), fresh(e));
  EXPECT_EQ(memo.size(), entries.size());
  for (const auto& e : entries) EXPECT_EQ(order_of(*e, info), fresh(e));
  EXPECT_EQ(memo.size(), entries.size()) << "second pass must only hit";
  EXPECT_EQ(memo.evaluations(), 0u) << "orders alone evaluate nothing";
}

// ------------------------------------------------------ the binding

TEST(OrderMemo, AnotherInstanceOrCompletionModelTripsTheAssert) {
  const Instance a = table2_draw(6, 0);
  const Instance b = table2_draw(6, 1);
  const SchedulerEntryPtr ecef = registry().make("ECEF");
  OrderMemo memo;
  (void)order_of(*ecef, SchedulerRuntimeInfo(a, 0, CompletionModel::kEager,
                                             &memo));
  EXPECT_THROW((void)order_of(*ecef, SchedulerRuntimeInfo(
                                         b, 0, CompletionModel::kEager, &memo)),
               LogicError);
  EXPECT_THROW(
      (void)schedule_of(*ecef, SchedulerRuntimeInfo(
                                   a, 0, CompletionModel::kAfterLastSend,
                                   &memo)),
      LogicError);
  // clear() unbinds: the memo then serves the next instance.
  memo.clear();
  EXPECT_EQ(order_of(*ecef, SchedulerRuntimeInfo(b, 0, CompletionModel::kEager,
                                                 &memo)),
            ecef->order(b));
}

/// Flat order, reversed on every other call: not a function of the info.
class Fickle final : public SchedulerEntry {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "Fickle";
  }
  [[nodiscard]] SendOrder order(
      const SchedulerRuntimeInfo& info) const override {
    SendOrder order = flat_tree_order(info.instance());
    if (++calls_ % 2 == 0) std::reverse(order.begin(), order.end());
    return order;
  }
  using SchedulerEntry::order;

 private:
  mutable std::size_t calls_ = 0;
};

TEST(OrderMemo, HitThatAFreshDerivationContradictsTripsTheDcheck) {
  if (!GRIDCAST_DCHECKS_ENABLED)
    GTEST_SKIP() << "GRIDCAST_DCHECK is compiled out in this build";
  const Instance inst = table2_draw(5, 0);
  const Fickle fickle;
  OrderMemo memo;
  const SchedulerRuntimeInfo info(inst, 0, CompletionModel::kEager, &memo);
  (void)order_of(fickle, info);
  EXPECT_THROW((void)order_of(fickle, info), LogicError);
}

// ------------------------------------ the Fig. 2 race's exact counts

// perfbench's race_fig2 field (the paper's seven plus auto) on the Fig. 2
// ladder's first draws.  Per draw the memo derives and evaluates each of
// the seven once, auto once, and each of auto's other candidates that
// accepts the draw once: ECEF-AvgEdge and ECEF-AvgMove always, LAN-Flat
// and Star-WAN as their gates decide.
TEST(OrderMemo, Fig2FieldDerivesAndEvaluatesEachOrderOncePerDraw) {
  std::vector<std::string> names;
  for (const auto& s : paper_heuristics()) names.emplace_back(s.name());
  names.emplace_back("auto");
  const std::vector<Scheduler> field =
      exp::resolve_competitors(names, HeuristicOptions{});
  const SchedulerEntryPtr lan = registry().make("LAN-Flat");
  const SchedulerEntryPtr star = registry().make("Star-WAN");
  const collective::PlogpBackend plogp;
  const collective::Backend& backend = plogp;

  OrderMemo memo;
  std::size_t derived = 0;
  std::size_t evaluated = 0;
  for (const std::size_t n : exp::fig2_cluster_ladder()) {
    for (std::uint64_t it = 0; it < 4; ++it) {
      const Instance inst = table2_draw(n, it);
      memo.clear();
      const SchedulerRuntimeInfo info(inst, 0, CompletionModel::kEager, &memo);
      for (const auto& comp : field) {
        const Time memoised = backend.bcast(comp.entry(), info).completion;
        EXPECT_EQ(memoised,
                  backend.bcast(comp.entry(), SchedulerRuntimeInfo(inst))
                      .completion)
            << comp.name() << " at n=" << n;
      }
      const std::size_t gated_in =
          (lan->can_schedule(info) ? 1 : 0) + (star->can_schedule(info) ? 1 : 0);
      EXPECT_EQ(memo.size(), 10 + gated_in) << "n=" << n << " it=" << it;
      EXPECT_EQ(memo.evaluations(), memo.size()) << "n=" << n << " it=" << it;
      derived += memo.size();
      evaluated += memo.evaluations();
    }
  }
  // 40 draws x 10, plus 39 specialist acceptances.  Without the memo the
  // same field derives and evaluates 17 + (acceptances) orders per draw.
  EXPECT_EQ(derived, 439u);
  EXPECT_EQ(evaluated, 439u);
}

}  // namespace
}  // namespace gridcast::sched
