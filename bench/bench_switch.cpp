// Experiment SWITCH — the paper's motivating application (Section 1):
// input-queued switch scheduling. The introduction's narrative: larger
// matchings => higher throughput; PIM [3] grew out of Israeli–Itai's
// ideas and iSLIP [23] refined it; this paper's bipartite engine
// produces near-maximum matchings within a CONGEST round budget.
//
// Regenerated table: per (traffic pattern, load, scheduler):
// normalized throughput, mean delay, p99 delay, mean queue occupancy.
// Expected shape: MaxWeight/MaxSize oracles stable everywhere; PIM,
// iSLIP and DistMCM close at uniform loads; greedy and low-iteration
// PIM degrade first under high/asymmetric load. PIM-1/2/4/8 ablate the
// iteration count: O(log N) iterations converge (Anderson et al. [3]).
#include <memory>

#include "bench/bench_common.hpp"
#include "switch/voq.hpp"

using namespace lps;

int main(int argc, char** argv) try {
  const Args opts(argc, argv);
  const std::size_t ports = opts.get_count("ports", 8, SIZE_MAX);
  const std::uint64_t slots = opts.get_count("slots", 6000, UINT64_MAX);
  opts.check_all_used();

  bench::print_header(
      "SWITCH: VOQ crossbar, schedulers under Bernoulli traffic",
      "larger matchings -> higher throughput / lower delay (Section 1)");

  Table t({"pattern", "load", "scheduler", "throughput", "mean delay",
           "p99 delay", "mean queue"});
  for (const TrafficPattern pattern :
       {TrafficPattern::kUniform, TrafficPattern::kDiagonal}) {
    for (const double load : {0.5, 0.8, 0.95}) {
      struct Entry {
        std::string label;
        std::unique_ptr<Scheduler> sched;
      };
      std::vector<Entry> entries;
      entries.push_back({"PIM-1", std::make_unique<PimScheduler>(1, 1)});
      entries.push_back({"PIM-2", std::make_unique<PimScheduler>(2, 1)});
      entries.push_back({"PIM-4", std::make_unique<PimScheduler>(4, 1)});
      entries.push_back({"PIM-8", std::make_unique<PimScheduler>(8, 1)});
      entries.push_back({"iSLIP-4", std::make_unique<IslipScheduler>(4)});
      entries.push_back({"Greedy-LQF", std::make_unique<GreedyScheduler>()});
      entries.push_back(
          {"DistMCM-k2", std::make_unique<DistMcmScheduler>(2, 1)});
      entries.push_back({"MaxSize", std::make_unique<MaxSizeScheduler>()});
      entries.push_back({"MaxWeight", std::make_unique<MaxWeightScheduler>()});
      for (auto& entry : entries) {
        SwitchConfig cfg;
        cfg.ports = ports;
        cfg.slots = slots;
        cfg.warmup = slots / 10;
        cfg.load = load;
        cfg.pattern = pattern;
        cfg.seed = 42;
        const SwitchMetrics m = run_switch(cfg, *entry.sched);
        t.row();
        t.cell(to_string(pattern));
        t.cell(load, 3);
        t.cell(entry.label);
        t.cell(m.normalized_throughput, 4);
        t.cell(m.mean_delay, 4);
        t.cell(m.p99_delay, 4);
        t.cell(m.mean_queue, 4);
      }
    }
  }
  bench::print_table(t);
  return 0;
} catch (const std::invalid_argument& e) {
  return reject_input("bench_switch", e);
}
