#include "plogp/collective_predict.hpp"

#include <algorithm>

namespace gridcast::plogp {

Time predict_binomial_bcast(const Params& p, std::uint32_t nodes, Bytes m) {
  if (nodes <= 1) return 0.0;
  // Recursive split: the root keeps ceil(n/2) ranks and delegates
  // floor(n/2) to the child it contacts first.  Completion is the max of
  // both halves; the sender is re-available one gap later, the child holds
  // the payload after g + L + or.
  struct Rec {
    Time g, hop;
    [[nodiscard]] Time run(std::uint32_t n, Time ready) const {
      if (n <= 1) return ready;
      const std::uint32_t child_side = n / 2;
      const std::uint32_t my_side = n - child_side;
      const Time child_ready = ready + hop;
      const Time mine = run(my_side, ready + g);
      const Time theirs = run(child_side, child_ready);
      return std::max(mine, theirs);
    }
  };
  const Rec rec{p.g(m), p.g(m) + p.L + p.orecv(m)};
  return rec.run(nodes, 0.0);
}

}  // namespace gridcast::plogp
