#include "exp/distribution.hpp"

#include <map>
#include <mutex>

#include "support/error.hpp"

namespace gridcast::exp {

DistributionResult run_distribution(const std::vector<sched::Scheduler>& comps,
                                    const DistributionConfig& cfg,
                                    ThreadPool& pool) {
  GRIDCAST_ASSERT(!comps.empty(), "no competitors");
  GRIDCAST_ASSERT(cfg.clusters >= 2, "need at least two clusters");
  cfg.ranges.validate();

  DistributionResult out;
  out.iterations = cfg.iterations;
  out.series.reserve(comps.size());
  for (const auto& c : comps)
    out.series.emplace_back(std::string(c.name()), cfg);

  // Partials are merged in chunk order afterwards: floating-point merging
  // is not associative, so merge order must not depend on thread
  // scheduling.
  std::mutex collect_mu;
  std::map<std::size_t, std::vector<DistributionSeries>> partials;

  pool.parallel_for(
      static_cast<std::size_t>(cfg.iterations),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<DistributionSeries> local;
        local.reserve(comps.size());
        for (const auto& c : comps)
          local.emplace_back(std::string(c.name()), cfg);

        sched::Instance inst;  // storage reused across iterations
        for (std::size_t it = lo; it < hi; ++it) {
          Rng rng = Rng::stream(cfg.seed, it);
          sample_instance_into(cfg.ranges, cfg.clusters, rng, cfg.root, inst);
          for (std::size_t s = 0; s < comps.size(); ++s) {
            const Time mk = comps[s].makespan(inst);
            local[s].stats.add(mk);
            local[s].histogram.add(mk);
          }
        }

        std::lock_guard lk(collect_mu);
        partials.emplace(lo, std::move(local));
      });

  for (auto& [lo, local] : partials) {
    for (std::size_t s = 0; s < comps.size(); ++s) {
      out.series[s].stats.merge(local[s].stats);
      out.series[s].histogram.merge(local[s].histogram);
    }
  }
  return out;
}

}  // namespace gridcast::exp
