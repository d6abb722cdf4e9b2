#include "sim/trace.h"

#include <gtest/gtest.h>

#include "baselines/expert_plans.h"
#include "ir/lowering.h"
#include "models/models.h"
#include "sim/simulator.h"

namespace tap::sim {
namespace {

TEST(Trace, ChromeJsonWellFormed) {
  Trace t;
  t.add("matmul", "forward", 0.001, 0.002, 0);
  t.add("allreduce \"x\"", "comm", 0.003, 0.004, 1);
  std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1000"), std::string::npos);   // 0.001s = 1000us
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);
  EXPECT_NE(json.find("\\\"x\\\""), std::string::npos);  // escaped quote
}

TEST(Trace, ControlCharactersInEventNamesStayValidJson) {
  // Sim event names carry graph op names, which may hold control bytes.
  Trace t;
  t.add("a\nb\x01", "forward", 0.001, 0.002, 0);
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"a\\nb\\u0001\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\x01'), std::string::npos) << json;
  EXPECT_EQ(json.find("a\nb"), std::string::npos) << json;
}

TEST(Trace, LaneBusyTimes) {
  Trace t;
  t.add("a", "forward", 0, 1.0, 0);
  t.add("b", "backward", 2.0, 0.5, 0);
  t.add("c", "comm", 0, 0.25, 1);
  EXPECT_DOUBLE_EQ(t.lane_busy_s(0), 1.5);
  EXPECT_DOUBLE_EQ(t.lane_busy_s(1), 0.25);
}

TEST(Trace, SimulatorFillsTraceConsistently) {
  Graph g = models::build_transformer(models::t5_with_layers(2));
  ir::TapGraph tg = ir::lower(g);
  auto plan = baselines::megatron_plan(tg, 8);
  auto routed = sharding::route_plan(tg, plan);
  ASSERT_TRUE(routed.valid);

  Trace trace;
  SimOptions opts;
  opts.trace = &trace;
  cost::ClusterSpec cluster = cost::ClusterSpec::v100_node();
  auto step = simulate_step(tg, routed, 8, cluster, opts);

  ASSERT_FALSE(trace.empty());
  // Compute-lane busy time equals the breakdown's compute total.
  EXPECT_NEAR(trace.lane_busy_s(0), step.compute_s(),
              step.compute_s() * 1e-6 + 1e-12);
  // Comm-lane busy time equals the comm total.
  EXPECT_NEAR(trace.lane_busy_s(1), step.comm_s, step.comm_s * 1e-6 + 1e-12);
  // No event extends past the makespan (with fp slack).
  for (const auto& e : trace.events()) {
    EXPECT_LE(e.start_s + e.duration_s, step.iteration_s * (1.0 + 1e-9));
    EXPECT_GE(e.start_s, 0.0);
  }
  // All phases present.
  bool fwd = false, bwd = false, grad = false;
  for (const auto& e : trace.events()) {
    fwd |= e.category == "forward";
    bwd |= e.category == "backward";
    grad |= e.category == "gradsync";
  }
  EXPECT_TRUE(fwd);
  EXPECT_TRUE(bwd);
  EXPECT_TRUE(grad);
}

TEST(Trace, ArgsRoundTripThroughObsExport) {
  Trace t;
  const std::int64_t first =
      t.add("allreduce", "comm", 0.0, 0.001, 1, -1,
            {{"bytes", "4096"}, {"collective", "AllReduce"}});
  t.add("matmul \"q\"", "forward", 0.001, 0.002, 0, first,
        {{"shape", "[16, 512]"}});

  // to_obs_events carries the args map verbatim.
  const auto obs_events = t.to_obs_events();
  ASSERT_EQ(obs_events.size(), 2u);
  ASSERT_EQ(obs_events[0].args.size(), 2u);
  EXPECT_EQ(obs_events[0].args.at("bytes"), "4096");
  EXPECT_EQ(obs_events[0].args.at("collective"), "AllReduce");
  EXPECT_EQ(obs_events[1].args.at("shape"), "[16, 512]");

  // Chrome JSON exposes them as the per-event "args" object.
  const std::string json = t.to_chrome_json();
  EXPECT_NE(json.find("\"args\":{\"bytes\":\"4096\","
                      "\"collective\":\"AllReduce\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"shape\":\"[16, 512]\"}"),
            std::string::npos);

  // append_to re-bases onto an obs session without dropping the args.
  obs::TraceSession session;
  t.append_to(session);
  const auto imported = session.events();
  ASSERT_EQ(imported.size(), 2u);
  EXPECT_EQ(imported[0].args.at("bytes"), "4096");
  EXPECT_NE(session.to_chrome_json().find("\"args\":{\"shape\""),
            std::string::npos);
}

TEST(Trace, SimulatorRecordsArgsAndPredecessors) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, baselines::megatron_plan(tg, 8));
  ASSERT_TRUE(routed.valid);
  Trace trace;
  SimOptions opts;
  opts.trace = &trace;
  simulate_step(tg, routed, 8, cost::ClusterSpec::v100_node(), opts);
  ASSERT_FALSE(trace.empty());

  bool comm_args = false, compute_args = false;
  const auto& events = trace.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    // Predecessors always point at earlier events (or -1).
    EXPECT_LT(e.pred, static_cast<std::int64_t>(i));
    EXPECT_GE(e.pred, -1);
    if (e.lane == 1 && e.args.count("bytes") && e.args.count("collective"))
      comm_args = true;
    if (e.lane == 0 && e.args.count("shape")) compute_args = true;
  }
  EXPECT_TRUE(comm_args) << "collectives carry bytes + collective args";
  EXPECT_TRUE(compute_args) << "compute tasks carry their output shape";
}

TEST(Trace, EventsOnSameLaneDoNotOverlap) {
  Graph g = models::build_transformer(models::t5_with_layers(1));
  ir::TapGraph tg = ir::lower(g);
  auto routed = sharding::route_plan(tg, sharding::default_plan(tg, 8));
  Trace trace;
  SimOptions opts;
  opts.trace = &trace;
  simulate_step(tg, routed, 8, cost::ClusterSpec::v100_node(), opts);

  for (int lane : {0, 1}) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& e : trace.events())
      if (e.lane == lane) spans.push_back({e.start_s, e.duration_s});
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first + 1e-12,
                spans[i - 1].first + spans[i - 1].second)
          << "lane " << lane << " overlap at span " << i;
    }
  }
}

}  // namespace
}  // namespace tap::sim
