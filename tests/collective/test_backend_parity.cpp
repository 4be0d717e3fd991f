// Backend parity: the analytic "plogp" backend and the executing "sim"
// backend are two views of the same cost model, and the closed-form pLogP
// binomial-tree prediction agrees with its executed counterpart.  This is
// the invariant that lets `--backend=plogp` forecast `--backend=sim`
// (Fig. 5 forecasting Fig. 6), and it is what makes the backend swap in
// the sweep harness a semantics-preserving refactor.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "collective/backends.hpp"
#include "collective/bcast.hpp"
#include "exp/race_cli.hpp"
#include "exp/realise.hpp"
#include "plogp/collective_predict.hpp"
#include "sched/registry.hpp"
#include "support/rng.hpp"
#include "topology/grid5000.hpp"

namespace gridcast {
namespace {

plogp::Params lan_params(Time L, double bw, Time overhead) {
  plogp::Params p;
  p.L = L;
  p.g = plogp::GapFunction::affine(us(10), bw);
  // os must stay under g(m) (pLogP invariant); it is charged by neither
  // side here, so zero keeps the parity algebra clean.
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(overhead);
  return p;
}

topology::Grid one_cluster_grid(std::uint32_t nodes, Time overhead) {
  std::vector<topology::Cluster> cs;
  cs.emplace_back("c0", nodes, lan_params(us(50), 1e8, overhead));
  topology::Grid grid(std::move(cs));
  grid.validate();
  return grid;
}

std::vector<NodeId> all_ranks(std::uint32_t nodes) {
  std::vector<NodeId> ranks(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) ranks[i] = i;
  return ranks;
}

// ------------------------------ closed-form binomial vs executed binomial

TEST(PrimitiveParity, BinomialBcastMatchesClosedFormExactly) {
  // The executor's recursive split mirrors predict_binomial_bcast's; both
  // charge g + L + or per hop, so agreement is exact even with overheads.
  for (const std::uint32_t nodes : {2u, 7u, 32u}) {
    const topology::Grid grid = one_cluster_grid(nodes, us(20));
    sim::Network net(grid, {}, 1);
    const Time run =
        collective::run_binomial_bcast(net, all_ranks(nodes), MiB(2))
            .completion;
    const Time predicted =
        plogp::predict_binomial_bcast(grid.cluster(0).intra(), nodes, MiB(2));
    EXPECT_NEAR(run, predicted, 1e-9) << nodes << " nodes";
  }
}

// ----------------------------------- backend-level completions agreement

plogp::Params bare(Time L, Time g0, double bw) {
  plogp::Params p;
  p.L = L;
  p.g = plogp::GapFunction::affine(g0, bw);
  p.os = plogp::GapFunction::constant(0.0);
  p.orecv = plogp::GapFunction::constant(0.0);
  return p;
}

topology::Grid random_bare_grid(std::uint64_t seed, std::uint32_t clusters) {
  Rng rng = Rng::stream(seed, 0xFACE);
  std::vector<topology::Cluster> cs;
  for (std::uint32_t c = 0; c < clusters; ++c) {
    const auto size = static_cast<std::uint32_t>(rng.between(1, 8));
    cs.emplace_back(std::string("c").append(std::to_string(c)), size,
                    bare(rng.uniform(us(20), us(100)), us(10),
                         rng.uniform(5e7, 2e8)));
  }
  topology::Grid grid(std::move(cs));
  for (ClusterId i = 0; i < clusters; ++i)
    for (ClusterId j = static_cast<ClusterId>(i + 1); j < clusters; ++j)
      grid.set_link_symmetric(
          i, j,
          bare(rng.uniform(ms(1), ms(20)), us(100), rng.uniform(1e6, 1e7)));
  grid.validate();
  return grid;
}

TEST(BackendParity, ZeroOverheadCompletionsAgreeExactly) {
  // With zero-overhead parameters, no jitter and the after-last-send
  // completion model (the executor's NIC semantics), predictor and
  // executor are the same number.
  sched::HeuristicOptions opts;
  opts.completion = sched::CompletionModel::kAfterLastSend;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const topology::Grid grid = random_bare_grid(seed, 5);
    const collective::SimBackend sim(grid);
    const collective::PlogpBackend plogp;
    const auto inst = sched::Instance::from_grid(grid, 0, MiB(1));
    for (const std::string_view name : {"FlatTree", "ECEF-LAT", "BottomUp"}) {
      const auto entry = sched::registry().make(name, opts);
      const sched::SchedulerRuntimeInfo info(inst, MiB(1), opts.completion);
      EXPECT_NEAR(sim.bcast(*entry, info, seed).completion,
                  plogp.bcast(*entry, info, seed).completion, 1e-9)
          << name << " on seed " << seed;
    }
  }
}

TEST(BackendParity, Grid5000CompletionsAgreeWithinOverheadResidual) {
  // On the real testbed parameters the executor additionally pays receive
  // overheads the scheduling model omits (by design — see sim/network.hpp),
  // so the backends agree within a small relative residual, not exactly.
  sched::HeuristicOptions opts;
  opts.completion = sched::CompletionModel::kAfterLastSend;
  const topology::Grid grid = topology::grid5000_testbed();
  const collective::SimBackend sim(grid);
  const collective::PlogpBackend plogp;
  for (const Bytes m : {KiB(256), MiB(1), MiB(4)}) {
    const auto inst = sched::Instance::from_grid(grid, 0, m);
    for (const std::string_view name : {"FlatTree", "ECEF-LAT"}) {
      const auto entry = sched::registry().make(name, opts);
      const sched::SchedulerRuntimeInfo info(inst, m, opts.completion);
      const Time measured = sim.bcast(*entry, info, 1).completion;
      const Time predicted = plogp.bcast(*entry, info, 1).completion;
      EXPECT_NEAR(measured, predicted, 0.05 * predicted)
          << name << " at " << m << " bytes";
    }
  }
}

// ------------------------- scatter / alltoall: the verb parity wall
//
// The closed-form pLogP scatter and alltoall predictions must match the
// executed algorithms exactly on zero-overhead grids (the analytic model
// omits only the receive overhead) and within the same ≤5% residual the
// broadcast parity enforces on the realistic testbed — across schedules.

/// Fold an executing backend's per-rank delivery vector to per-cluster
/// finish times, the granularity the analytic backend reports.
std::vector<Time> per_cluster(const topology::Grid& grid,
                              const collective::CollectiveResult& r) {
  std::vector<Time> finish(grid.cluster_count(), 0.0);
  for (NodeId rank = 0; rank < r.delivered.size(); ++rank)
    finish[grid.locate(rank).first] =
        std::max(finish[grid.locate(rank).first], r.delivered[rank]);
  return finish;
}

void expect_verb_parity(const topology::Grid& grid,
                        const sched::SchedulerEntry& entry, Bytes block,
                        const std::string& label) {
  const collective::SimBackend sim(grid);
  const collective::PlogpBackend plogp(&grid);
  for (const collective::Verb verb :
       {collective::Verb::kScatter, collective::Verb::kAlltoall}) {
    const collective::CollectiveResult run =
        verb == collective::Verb::kScatter ? sim.scatter(entry, 0, block, 1)
                                           : sim.alltoall(entry, block, 1);
    const collective::CollectiveResult predicted =
        verb == collective::Verb::kScatter
            ? plogp.scatter(entry, 0, block, 1)
            : plogp.alltoall(entry, block, 1);
    const std::string what =
        label + " " + std::string(collective::verb_name(verb));
    EXPECT_NEAR(run.completion, predicted.completion, 1e-9) << what;
    const std::vector<Time> executed = per_cluster(grid, run);
    ASSERT_EQ(predicted.delivered.size(), executed.size()) << what;
    for (ClusterId c = 0; c < executed.size(); ++c)
      EXPECT_NEAR(executed[c], predicted.delivered[c], 1e-9)
          << what << " cluster " << c;
    // The analytic counters mirror the executed accounting exactly.
    EXPECT_EQ(run.messages, predicted.messages) << what;
    EXPECT_EQ(run.wan_messages, predicted.wan_messages) << what;
    EXPECT_EQ(run.bytes, predicted.bytes) << what;
    EXPECT_EQ(run.wan_bytes, predicted.wan_bytes) << what;
  }
}

TEST(VerbParity, ZeroOverheadCompletionsAgreeExactly) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const topology::Grid grid = random_bare_grid(seed, 5);
    for (const std::string_view name : {"FlatTree", "ECEF-LAT", "BottomUp"}) {
      const auto entry = sched::registry().make(name);
      expect_verb_parity(grid, *entry, MiB(1),
                         "seed " + std::to_string(seed) + " " +
                             std::string(name));
    }
  }
}

TEST(VerbParity, SymmetricRealisedGridResolvesTiesLikeTheExecutor) {
  // A fully symmetric grid (every draw identical, realise_instance's
  // two-rank shape) makes every gather, injection and arrival collide at
  // identical timestamps — the analytic resolution must break those ties
  // exactly as the simulator's (time, issue-sequence) calendar does.
  const std::size_t n = 4;
  const sched::Instance inst(0, SquareMatrix<Time>(n, 0.25),
                             SquareMatrix<Time>(n, 0.125),
                             std::vector<Time>(n, 0.5));
  const topology::Grid grid = exp::realise_instance(inst);
  for (const std::string_view name : {"FlatTree", "ECEF-LAT", "BottomUp"}) {
    const auto entry = sched::registry().make(name);
    expect_verb_parity(grid, *entry, MiB(2), "realised " + std::string(name));
  }
}

TEST(VerbParity, Grid5000CompletionsAgreeWithinOverheadResidual) {
  // Same contract as the broadcast residual test: the executor pays the
  // receive overheads the model omits, so realistic parameters agree to a
  // few percent, not exactly.
  const topology::Grid grid = topology::grid5000_testbed();
  const collective::SimBackend sim(grid);
  const collective::PlogpBackend plogp(&grid);
  for (const Bytes block : {KiB(64), KiB(256)}) {
    for (const std::string_view name : {"FlatTree", "ECEF-LAT"}) {
      const auto entry = sched::registry().make(name);
      const Time s_run = sim.scatter(*entry, 0, block, 1).completion;
      const Time s_pred = plogp.scatter(*entry, 0, block, 1).completion;
      EXPECT_NEAR(s_run, s_pred, 0.05 * s_pred)
          << name << " scatter at " << block;
      const Time a_run = sim.alltoall(*entry, block, 1).completion;
      const Time a_pred = plogp.alltoall(*entry, block, 1).completion;
      EXPECT_NEAR(a_run, a_pred, 0.05 * a_pred)
          << name << " alltoall at " << block;
    }
  }
}

// --------------------------------------- report-level byte compatibility

std::string run_cli_to_string(const std::vector<std::string>& args) {
  const exp::RaceCli cli = exp::parse_race_cli(args);
  std::ostringstream out, err;
  EXPECT_EQ(exp::run_race_cli(cli, out, err), 0);
  return out.str();
}

TEST(BackendParity, AliasReportsAreByteIdenticalAndKeepTheModeField) {
  const std::vector<std::string> common = {
      "--sched=FlatTree,ECEF-LAT", "--sizes=256K,1M", "--seed=5",
      "--jitter=0.1", "--root=1"};
  auto with = [&](const std::string& flag) {
    std::vector<std::string> args = common;
    args.push_back(flag);
    return run_cli_to_string(args);
  };
  // The legacy spellings are registry aliases of the backend names.
  EXPECT_EQ(with("--backend=sim"), with("--backend=measured"));
  EXPECT_EQ(with("--backend=plogp"), with("--backend=predicted"));
  // The report's mode field stays the legacy vocabulary.
  EXPECT_NE(with("--backend=sim").find("\"mode\": \"measured\""),
            std::string::npos);
  EXPECT_NE(with("--backend=plogp").find("\"mode\": \"predicted\""),
            std::string::npos);
}

}  // namespace
}  // namespace gridcast
