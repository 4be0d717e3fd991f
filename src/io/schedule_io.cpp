#include "io/schedule_io.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

namespace gridcast::io {

void write_schedule_json(std::ostream& os, const sched::Schedule& s) {
  os << std::setprecision(17);
  os << "{\"root\":" << s.root << ",\"makespan\":" << s.makespan
     << ",\"transfers\":[";
  for (std::size_t i = 0; i < s.transfers.size(); ++i) {
    const auto& t = s.transfers[i];
    os << (i == 0 ? "" : ",") << "{\"sender\":" << t.sender
       << ",\"receiver\":" << t.receiver << ",\"start\":" << t.start
       << ",\"arrival\":" << t.arrival << '}';
  }
  os << "],\"finish\":[";
  for (std::size_t c = 0; c < s.cluster_finish.size(); ++c)
    os << (c == 0 ? "" : ",") << s.cluster_finish[c];
  os << "]}";
}

std::string schedule_to_json(const sched::Schedule& s) {
  std::ostringstream os;
  write_schedule_json(os, s);
  return os.str();
}

}  // namespace gridcast::io
