#include "io/schedule_io.hpp"

#include <gtest/gtest.h>

namespace gridcast::io {
namespace {

sched::Schedule sample_schedule() {
  sched::Schedule s;
  s.root = 0;
  s.transfers = {{0, 1, 0.0, 0.5}, {1, 2, 0.5, 1.25}};
  s.cluster_finish = {0.25, 1.0, 2.0};
  s.makespan = 2.0;
  return s;
}

TEST(ScheduleIo, JsonShape) {
  const std::string json = schedule_to_json(sample_schedule());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"root\":0"), std::string::npos);
  EXPECT_NE(json.find("\"makespan\":2"), std::string::npos);
  EXPECT_NE(json.find("\"transfers\":["), std::string::npos);
  EXPECT_NE(json.find("\"finish\":[0.25,1,2]"), std::string::npos);
}

TEST(ScheduleIo, JsonTransferFields) {
  const std::string json = schedule_to_json(sample_schedule());
  EXPECT_NE(json.find("{\"sender\":0,\"receiver\":1,\"start\":0,"
                      "\"arrival\":0.5}"),
            std::string::npos);
}

TEST(ScheduleIo, EmptyScheduleStillWellFormed) {
  sched::Schedule s;
  s.root = 0;
  s.cluster_finish = {0.0};
  const std::string json = schedule_to_json(s);
  EXPECT_NE(json.find("\"transfers\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"finish\":[0]"), std::string::npos);
}

}  // namespace
}  // namespace gridcast::io
