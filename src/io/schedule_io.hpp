#pragma once

#include <iosfwd>
#include <string>

#include "sched/schedule.hpp"

/// Schedule export for external tooling.
namespace gridcast::io {

/// JSON object {root, makespan, transfers:[{...}], finish:[...]}
/// (hand-rolled: the schedule grammar is flat and tiny).
void write_schedule_json(std::ostream& os, const sched::Schedule& s);

[[nodiscard]] std::string schedule_to_json(const sched::Schedule& s);

}  // namespace gridcast::io
