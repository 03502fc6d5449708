#include "faults/fault_plan.hpp"

#include <sstream>
#include <stdexcept>

#include "util/options.hpp"

namespace lps::faults {

namespace {

double require_prob(const Args& args, const std::string& key,
                    double fallback) {
  const double p = args.get_double(key, fallback);
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN included
    throw std::invalid_argument("fault plan: '" + key +
                                "' must lie in [0,1], got " +
                                std::to_string(p));
  }
  return p;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  const std::size_t colon = spec.find(':');
  if (colon == std::string::npos || colon == 0) {
    throw std::invalid_argument(
        "fault plan: expected 'name:key=value,...', got '" + spec + "'");
  }
  FaultPlan plan;
  plan.name = spec.substr(0, colon);
  const Args args("fault plan '" + plan.name + "'", spec.substr(colon + 1));

  plan.drop = require_prob(args, "drop", 0.0);
  plan.dup = require_prob(args, "dup", 0.0);
  plan.delay_rounds =
      static_cast<std::uint32_t>(args.get_count("delay", 0, 64));
  // A plan that bounds the delay implies some messages are delayed.
  plan.delay_p =
      require_prob(args, "delay_p", plan.delay_rounds > 0 ? 0.25 : 0.0);
  if (plan.delay_p > 0.0 && plan.delay_rounds == 0) {
    throw std::invalid_argument(
        "fault plan: 'delay_p' needs 'delay' (max extra rounds) > 0");
  }
  plan.reorder = args.get_bool("reorder", false);
  plan.flap = require_prob(args, "flap", 0.0);
  plan.down_epochs =
      static_cast<std::uint32_t>(args.get_count("down", 1, 1024));
  if (plan.down_epochs == 0) {
    throw std::invalid_argument("fault plan: 'down' must be at least 1");
  }
  plan.adversarial = require_prob(args, "adversarial", 0.0);
  plan.epochs = static_cast<std::uint32_t>(
      args.get_count("epochs", plan.graph_faults() ? 4 : 0, 1 << 20));
  args.check_all_used();

  // One uniform draw decides each message's fate, so the per-message
  // fault probabilities must partition [0,1].
  if (plan.drop + plan.delay_p + plan.dup > 1.0) {
    throw std::invalid_argument(
        "fault plan: drop + delay_p + dup must not exceed 1");
  }
  if (plan.graph_faults() && plan.epochs == 0) {
    throw std::invalid_argument(
        "fault plan: graph faults (flap/adversarial) need epochs > 0");
  }
  return plan;
}

std::string FaultPlan::to_spec() const {
  std::ostringstream os;
  os << name << ':';
  bool first = true;
  const auto emit = [&](const std::string& kv) {
    if (!first) os << ',';
    os << kv;
    first = false;
  };
  if (drop > 0.0) emit("drop=" + std::to_string(drop));
  if (dup > 0.0) emit("dup=" + std::to_string(dup));
  if (delay_rounds > 0) {
    emit("delay=" + std::to_string(delay_rounds));
    emit("delay_p=" + std::to_string(delay_p));
  }
  if (reorder) emit("reorder=true");
  if (flap > 0.0) emit("flap=" + std::to_string(flap));
  if (flap > 0.0 && down_epochs != 1) emit("down=" + std::to_string(down_epochs));
  if (adversarial > 0.0) emit("adversarial=" + std::to_string(adversarial));
  if (epochs > 0) emit("epochs=" + std::to_string(epochs));
  if (first) emit("epochs=0");
  return os.str();
}

}  // namespace lps::faults
