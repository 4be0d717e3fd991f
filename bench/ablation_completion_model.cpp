// Ablation (DESIGN.md §4.8): the completion model.  Under the eager model
// (finish = arrival + T, internal broadcast overlapping later forwarding)
// the paper's Figs. 3-4 shapes emerge: ECEF-LAT's hit rate stays constant
// while the speed-oriented variants decay.  Under the after-last-send
// model (the formalism prose), prioritising big-T clusters pays less and
// the speed-oriented variants dominate.  This bench prints both.

#include "common.hpp"

int main() {
  using namespace gridcast;
  const BenchOptions opt = benchx::options(2000);
  benchx::print_banner("Ablation: completion model",
                       "ECEF-family hit counts under both completion models",
                       opt);
  ThreadPool pool(opt.threads);

  std::vector<std::size_t> counts{5, 15, 30, 50};
  for (const auto model :
       {sched::CompletionModel::kEager, sched::CompletionModel::kAfterLastSend}) {
    sched::HeuristicOptions opts;
    opts.completion = model;
    std::cout << "# model = "
              << (model == sched::CompletionModel::kEager ? "eager (arrival+T)"
                                                          : "after-last-send")
              << '\n';
    benchx::emit(
        benchx::race_table(
            benchx::race(counts, benchx::names_of(sched::ecef_family()), opt,
                         pool, opts),
            benchx::RaceMetric::kHits),
        opt);
  }
  return 0;
}
