#include "driver/system.hpp"

#include <algorithm>

#include "minic/typecheck.hpp"
#include "wcet/wcet.hpp"

namespace vc::driver {

void FlightSystem::add_node(dataflow::Node node) {
  check(!elaborated_, "add_node after elaborate");
  node.validate();
  for (const auto& existing : nodes_)
    check(existing.name() != node.name(), "duplicate node name");
  nodes_.push_back(std::move(node));
}

void FlightSystem::connect(const std::string& producer, int out_index,
                           const std::string& consumer, int in_index) {
  check(!elaborated_, "connect after elaborate");
  wires_.push_back(Wire{producer, out_index, consumer, in_index});
}

void FlightSystem::elaborate() {
  check(!elaborated_, "elaborate called twice");
  program_ = minic::Program{};
  program_.name = "flight_system";
  for (const auto& node : nodes_) dataflow::generate_node(node, &program_);
  minic::type_check(program_);

  // Validate wiring against the generated interfaces.
  for (const Wire& w : wires_) {
    const auto producer =
        std::find_if(nodes_.begin(), nodes_.end(),
                     [&](const auto& n) { return n.name() == w.producer; });
    const auto consumer =
        std::find_if(nodes_.begin(), nodes_.end(),
                     [&](const auto& n) { return n.name() == w.consumer; });
    check(producer != nodes_.end(),
          [&] { return "unknown producer '" + w.producer + "'"; });
    check(consumer != nodes_.end(),
          [&] { return "unknown consumer '" + w.consumer + "'"; });
    check(w.out_index >= 0 && w.out_index < producer->output_count(), [&] {
      return "output index out of range on wire from '" + w.producer + "'";
    });
    const minic::Function* fn = program_.find_function(
        dataflow::step_function_name(*consumer));
    check(fn != nullptr && w.in_index >= 0 &&
              static_cast<std::size_t>(w.in_index) < fn->params.size() &&
              fn->params[static_cast<std::size_t>(w.in_index)].type ==
                  minic::Type::F64,
          [&] {
            return "input index out of range on wire into '" + w.consumer +
                   "'";
          });
  }
  elaborated_ = true;
}

Compiled FlightSystem::compile(Config config) const {
  check(elaborated_, "compile before elaborate");
  return compile_program(program_, config);
}

FlightSystem::FrameStats FlightSystem::run_frame(
    machine::Machine& machine,
    const std::map<std::string, std::vector<minic::Value>>& external) const {
  check(elaborated_, "run_frame before elaborate");
  FrameStats stats;
  // Latched signal values routed between nodes within the frame.
  std::map<std::pair<std::string, int>, minic::Value> latched;

  for (const auto& node : nodes_) {
    const std::string fn = dataflow::step_function_name(node);
    const minic::Function* decl = program_.find_function(fn);
    check(decl != nullptr, "missing step function");

    // Assemble this node's argument list: wired inputs take the producer's
    // latched output; the rest come from `external`.
    std::vector<minic::Value> args(decl->params.size());
    std::vector<bool> wired(decl->params.size(), false);
    for (const Wire& w : wires_) {
      if (w.consumer != node.name()) continue;
      auto it = latched.find({w.producer, w.out_index});
      check(it != latched.end(), [&] {
        return "wire from '" + w.producer +
               "' consumed before production (schedule order)";
      });
      args[static_cast<std::size_t>(w.in_index)] = it->second;
      wired[static_cast<std::size_t>(w.in_index)] = true;
    }
    auto ext = external.find(node.name());
    std::size_t next_ext = 0;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (wired[i]) continue;
      if (ext != external.end() && next_ext < ext->second.size()) {
        args[i] = ext->second[next_ext++];
      } else {
        args[i] = decl->params[i].type == minic::Type::F64
                      ? minic::Value::of_f64(0.0)
                      : minic::Value::of_i32(0);
      }
      check(args[i].type == decl->params[i].type, [&] {
        return "external input type mismatch for '" + node.name() + "'";
      });
    }

    machine.call(fn, args, minic::Type::I32);
    stats.cycles += machine.stats().cycles;
    stats.instructions += machine.stats().instructions;

    for (int k = 0; k < node.output_count(); ++k) {
      latched[{node.name(), k}] = machine.read_global(
          dataflow::output_global(node, k), 0, minic::Type::F64);
    }
  }
  return stats;
}

FlightSystem::FrameWcet FlightSystem::frame_wcet(
    const Compiled& compiled) const {
  check(elaborated_, "frame_wcet before elaborate");
  FrameWcet out;
  for (const auto& node : nodes_) {
    const std::string fn = dataflow::step_function_name(node);
    const std::uint64_t bound =
        wcet::analyze_wcet(compiled.image, fn).wcet_cycles;
    out.per_node.emplace_back(node.name(), bound);
    out.total += bound;
  }
  return out;
}

}  // namespace vc::driver
